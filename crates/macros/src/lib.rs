//! # aomp-macros — the annotation style of the AOmpLib reproduction
//!
//! AOmpLib supports two programming styles: *annotations* (plain Java
//! annotations such as `@Parallel` that library aspects act upon) and
//! *pointcuts*. These attribute macros are the Rust stand-in for the
//! annotations: like the AspectJ weaver, they rewrite the annotated
//! function at compile time into the shim of paper Figure 12 — the
//! original body moves into a closure and the mechanism's runtime
//! construct wraps it.
//!
//! | Paper annotation | Attribute |
//! |---|---|
//! | `@Parallel[(threads=n)]` | `#[parallel]`, `#[parallel(threads = 4)]`, `#[parallel(cancellable, stall_deadline_ms = 200)]`, `#[parallel(only_if = "auto")]` |
//! | `@For[(schedule=…)]` | `#[for_loop]`, `#[for_loop(schedule = "staticCyclic")]`, `#[for_loop(schedule = "dynamic", chunk = 8)]` (see the schedule table below) |
//! | `@Critical[(id=name)]` | `#[critical]`, `#[critical(id = "lockname")]` |
//! | `@Replicated[(id=name)]`, `@Critical`'s lock under another name | `#[replicated]`, `#[replicated(id = "name")]` |
//! | `@BarrierBefore` / `@BarrierAfter` | `#[barrier_before]` / `#[barrier_after]` |
//! | `@Master` | `#[master]` (broadcasts the return value, if any) |
//! | `@Single` | `#[single]` (ditto) |
//! | `@Task` | `#[task]` (detached activity), `#[task(depend(in = "a", out = "b"))]` (dependent task) |
//! | `@FutureTask` + `@FutureResult` | `#[future_task]` (returns `FutureTask<T>`) |
//! | OpenMP 4.5 `taskloop` | `#[taskloop]`, `#[taskloop(min_chunk = 8)]` (the adaptive `@For` with a trailing barrier) |
//!
//! `@ThreadLocalField`, `@Reduce`, `@Ordered`, `@Reader`/`@Writer` are
//! data- or scope-coupled constructs: use the `aomp` runtime API or the
//! pointcut style (`aomp-weaver`) for those.
//!
//! ## Schedules
//!
//! `#[for_loop]`'s `schedule`, `chunk` and `min_chunk` arguments are
//! checked at expansion time by `aomp::schedule::Schedule::parse` — the
//! one schedule grammar, shared with `AOMP_SCHEDULE` — so the spellings
//! and aliases are exactly the ones it documents. Each schedule takes at
//! most one numeric argument, under the name of the `Schedule` field it
//! sets; a zero, a missing `chunk` on `blockCyclic`, or an argument the
//! schedule does not take is a compile error that lists these forms:
//!
//! | `schedule =` | `chunk = n` | `min_chunk = n` |
//! |---|---|---|
//! | `"staticBlock"` (default; `"static_block"`, `"static"`) | error | error |
//! | `"staticCyclic"` (`"static_cyclic"`, `"cyclic"`) | error | error |
//! | `"dynamic"` | optional, default 1 | error |
//! | `"guided"` | error | optional, default 1 |
//! | `"blockCyclic"` (`"block_cyclic"`) | required | error |
//! | `"adaptive"` | error | optional, default 1 |
//! | `"runtime"` (`Schedule::from_env()` at first call) | error | error |
//!
//! ## Composition
//!
//! Stacked attributes expand top-down, each wrapping the current body, so
//! **the first attribute binds closest to the body** and later attributes
//! wrap outside it. Paper Figure 8's
//! `@Master @BarrierBefore @BarrierAfter void interchange(..)` is written
//! identically in Rust and produces barrier-outside-master, as AOmpLib
//! does:
//!
//! ```ignore
//! #[master]
//! #[barrier_before]
//! #[barrier_after]
//! fn interchange(&self, k: i64, l: i64) { /* … */ }
//! ```
//!
//! ## Constraints inherited from the model
//!
//! * `#[parallel]` bodies run on every team thread, so the closure must
//!   be `Fn + Sync`: parameters should be `Copy` or shared references.
//! * `#[for_loop]` requires the first three (non-receiver) parameters to
//!   be the `i64` loop `(start, end, step)` — the paper's *for method*
//!   convention.
//! * Sequential semantics: `aomp::runtime::set_parallel_enabled(false)`
//!   turns every `#[parallel]` region into an inline sequential call.
//!
//! ## Implementation note
//!
//! These macros are written against raw `proc_macro` (no `syn`/`quote`),
//! so the workspace builds with zero registry dependencies. They support
//! plain functions with simple identifier parameters — exactly the shape
//! the paper's annotated *for methods* and activities take.

use aomp::schedule::Schedule;
use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

/// A function item split for rewriting: its header (attrs, visibility,
/// signature) and its brace-delimited body — the last token of any `fn`
/// item.
struct FnItem {
    header: Vec<TokenTree>,
    /// Index in `header` of the parameter list: the first parenthesis
    /// group after the `fn` keyword.
    params_idx: usize,
    body: Group,
}

impl FnItem {
    fn parse(item: TokenStream) -> Result<Self, String> {
        let mut header: Vec<TokenTree> = item.into_iter().collect();
        let body = match header.pop() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
            _ => return Err("aomp attribute macros apply to functions with a body".to_owned()),
        };
        let mut seen_fn = false;
        let params_idx = header.iter().position(|t| match t {
            TokenTree::Ident(id) if id.to_string() == "fn" => {
                seen_fn = true;
                false
            }
            TokenTree::Group(g) => seen_fn && g.delimiter() == Delimiter::Parenthesis,
            _ => false,
        });
        let params_idx = params_idx.ok_or("aomp: could not find the function parameter list")?;
        Ok(Self {
            header,
            params_idx,
            body,
        })
    }

    /// The `-> Type` return tokens after the parameter list, if any, as
    /// `(arrow_index, type_string)`.
    fn return_type(&self) -> Option<(usize, String)> {
        let rest = &self.header[self.params_idx + 1..];
        for (off, pair) in rest.windows(2).enumerate() {
            if let (TokenTree::Punct(a), TokenTree::Punct(b)) = (&pair[0], &pair[1]) {
                if a.as_char() == '-' && b.as_char() == '>' {
                    let ty: TokenStream = rest[off + 2..].iter().cloned().collect();
                    return Some((self.params_idx + 1 + off, ty.to_string()));
                }
            }
        }
        None
    }

    /// Fail with `why` if the function returns a value.
    fn require_unit(&self, why: &str) -> Result<(), String> {
        match self.return_type() {
            Some(_) => Err(why.to_owned()),
            None => Ok(()),
        }
    }

    /// Names of the first three non-receiver parameters — a for method's
    /// `(start, end, step)` — the identifier before each top-level `:`.
    fn loop_params(&self) -> Result<[String; 3], String> {
        let TokenTree::Group(params) = &self.header[self.params_idx] else {
            unreachable!("params_idx indexes a group");
        };
        let tokens: Vec<TokenTree> = params.stream().into_iter().collect();
        let mut names = Vec::new();
        for seg in split_top_commas(&tokens) {
            let colon = seg.iter().position(
                |t| matches!(t, TokenTree::Punct(p) if p.as_char() == ':' && p.spacing() == proc_macro::Spacing::Alone),
            );
            let Some(colon) = colon else {
                continue; // receiver (`self`, `&self`, …)
            };
            match &seg[..colon] {
                [TokenTree::Ident(id)] => names.push(id.to_string()),
                [TokenTree::Ident(m), TokenTree::Ident(id)] if m.to_string() == "mut" => {
                    names.push(id.to_string())
                }
                _ => return Err("aomp for methods need simple identifier parameters".to_owned()),
            }
            if names.len() == 3 {
                break; // later parameters may be any pattern
            }
        }
        names.try_into().map_err(|_| {
            "aomp: expected at least 3 loop-bound parameters (start, end, step)".to_owned()
        })
    }
}

/// One attribute expansion: split the function, let `new_body` write the
/// statements of its new body (and adjust the header if it must), and
/// re-emit it. Any `Err` becomes the `compile_error!` the user sees.
fn expand(
    item: TokenStream,
    new_body: impl FnOnce(&mut FnItem) -> Result<String, String>,
) -> TokenStream {
    let expanded = FnItem::parse(item).and_then(|mut f| {
        let body = new_body(&mut f)?;
        let header: TokenStream = f.header.into_iter().collect();
        format!("{header} {{ {body} }}")
            .parse()
            .map_err(|e| format!("aomp: generated code failed to parse: {e}"))
    });
    expanded.unwrap_or_else(|e| {
        format!("compile_error!({e:?});")
            .parse()
            .expect("compile_error parses")
    })
}

/// Statements binding `__aomp_site` to this call site's construct of
/// type `ty`, built by `init` on first use.
fn call_site(ty: &str, init: &str) -> String {
    format!(
        "static __AOMP_SITE: ::std::sync::OnceLock<{ty}> = ::std::sync::OnceLock::new();\n\
         let __aomp_site = __AOMP_SITE.get_or_init(|| {init});\n"
    )
}

/// Split a token slice on top-level commas. Commas inside groups are
/// never top-level; commas inside `<…>` generic arguments are excluded
/// by tracking angle depth.
fn split_top_commas(tokens: &[TokenTree]) -> Vec<Vec<TokenTree>> {
    let mut out = Vec::new();
    let mut cur = Vec::new();
    let mut angle: i32 = 0;
    for t in tokens {
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                '<' => angle += 1,
                '>' => angle = (angle - 1).max(0),
                ',' if angle == 0 => {
                    out.push(std::mem::take(&mut cur));
                    continue;
                }
                _ => {}
            }
        }
        cur.push(t.clone());
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// One parsed attribute argument: `name` or `name = <tokens>` (the value
/// kept as raw source text, so arbitrary expressions pass through).
struct AttrArg {
    name: String,
    value: Option<String>,
}

fn parse_attr_args(attr: TokenStream) -> Result<Vec<AttrArg>, String> {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    let mut out = Vec::new();
    for seg in split_top_commas(&tokens) {
        let mut it = seg.into_iter();
        let name = match it.next() {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("aomp: expected attribute key, found {other:?}")),
        };
        let value = match it.next() {
            None => None,
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                let rest: TokenStream = it.collect();
                let text = rest.to_string();
                if text.is_empty() {
                    return Err(format!("aomp: `{name} =` needs a value"));
                }
                Some(text)
            }
            Some(other) => return Err(format!("aomp: expected `=` after `{name}`, found {other}")),
        };
        out.push(AttrArg { name, value });
    }
    Ok(out)
}

fn unknown_arg(attr: &str, arg: &str, expected: &str) -> String {
    format!("aomp: unknown #[{attr}] argument `{arg}` (expected {expected})")
}

impl AttrArg {
    /// The value as raw source text — an arbitrary expression.
    fn expr(&self, what: &str) -> Result<&str, String> {
        self.value
            .as_deref()
            .ok_or_else(|| format!("aomp: `{}` needs {what}", self.name))
    }

    fn int(&self) -> Result<u64, String> {
        let v = self.expr("an integer value")?;
        v.replace('_', "")
            .parse::<u64>()
            .map_err(|_| format!("aomp: `{}` expects an integer, got `{v}`", self.name))
    }

    fn bool(&self) -> Result<bool, String> {
        match self.value.as_deref() {
            None | Some("true") => Ok(true),
            Some("false") => Ok(false),
            Some(v) => Err(format!("aomp: `{}` expects a bool, got `{v}`", self.name)),
        }
    }

    fn str(&self) -> Result<String, String> {
        let v = self.expr("a string value")?.trim();
        if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
            Ok(v[1..v.len() - 1].to_owned())
        } else {
            Err(format!(
                "aomp: `{}` expects a string literal, got `{v}`",
                self.name
            ))
        }
    }
}

/// `@Parallel` — the function execution becomes a parallel region: a team
/// of threads each execute the body, with an implicit join (paper
/// Figure 9).
///
/// Arguments: `threads = <int>` (team size), `nested = <bool>`,
/// `only_if = <expr>` (OpenMP's `if` clause, evaluated at call time) or
/// `only_if = "auto"` (the adaptive `if` clause,
/// `aomp::region::RegionConfig::adaptive`, over one `static` gate per
/// annotated function: the region runs alone while its measured team
/// round trip costs more than it saves — for bodies whose result does not
/// depend on the team size),
/// `cancellable` (honour `cancel_team()`, OpenMP 4.0 `cancel`),
/// `stall_deadline_ms = <int>` (arm the stall watchdog; a team stuck in
/// its synchronisation primitives is cancelled and diagnosed instead of
/// deadlocking — see `aomp::region` for what the watchdog can and
/// cannot interrupt), and `runtime = <expr>` (run the region on an
/// explicit [`aomp::Runtime`] instead of the ambient one; the
/// expression is evaluated at call time and borrowed).
#[proc_macro_attribute]
pub fn parallel(attr: TokenStream, item: TokenStream) -> TokenStream {
    expand(item, |f| {
        f.require_unit(
            "#[parallel] regions cannot return a value (the paper's parallel regions are void)",
        )?;
        let mut cfg = "::aomp::region::RegionConfig::new()".to_owned();
        for arg in parse_attr_args(attr)? {
            let setter = match arg.name.as_str() {
                "threads" => format!("threads({}usize)", arg.int()?),
                "nested" => format!("nested({})", arg.bool()?),
                "only_if" => only_if_setter(arg.expr("a value")?)?,
                "cancellable" => format!("cancellable({})", arg.bool()?),
                "stall_deadline_ms" => format!(
                    "stall_deadline(::std::time::Duration::from_millis({}u64))",
                    arg.int()?
                ),
                "runtime" => format!("runtime(&({}))", arg.expr("a value")?),
                other => {
                    let expected = "threads/nested/only_if/cancellable/stall_deadline_ms/runtime";
                    return Err(unknown_arg("parallel", other, expected));
                }
            };
            cfg.push_str(&format!(".{setter}"));
        }
        Ok(format!(
            "::aomp::region::parallel_with({cfg}, || {});",
            f.body
        ))
    })
}

/// `#[parallel]`'s `only_if` value as the `RegionConfig` setter it lowers
/// to. A string literal can never be a bool expression, so `"auto"` is
/// free to name the adaptive clause; its gate is a `static` in the
/// setter's argument, one per expansion, and each call shares it.
fn only_if_setter(value: &str) -> Result<String, String> {
    if !value.starts_with('"') {
        return Ok(format!("only_if({value})"));
    }
    if value == "\"auto\"" {
        return Ok("adaptive({ \
            static __AOMP_GATE: ::std::sync::LazyLock<::std::sync::Arc<::aomp::region::Gate>> = \
                ::std::sync::LazyLock::new(::std::default::Default::default); \
            ::std::sync::Arc::clone(&__AOMP_GATE) })"
            .to_owned());
    }
    Err(format!(
        "aomp: `#[parallel(only_if = {value})]` is not an if clause (expected only_if = <bool expression> | \"auto\")"
    ))
}

/// The name `#[for_loop]` gives the numeric argument of a schedule's
/// spec — the name of the `Schedule` field it sets.
fn numeric_arg(schedule: &Schedule) -> Option<&'static str> {
    match schedule {
        Schedule::StaticBlock | Schedule::StaticCyclic => None,
        Schedule::Dynamic { .. } | Schedule::BlockCyclic { .. } => Some("chunk"),
        Schedule::Guided { .. } | Schedule::Adaptive { .. } => Some("min_chunk"),
    }
}

/// `#[for_loop]`'s `schedule`/`chunk`/`min_chunk` arguments as the
/// `Schedule` expression the expansion constructs. The arguments are
/// lowered to the `"kind[,n]"` spec [`Schedule::parse`] reads — the only
/// schedule grammar — so what it rejects fails here, at expansion time.
fn schedule_expr(kind: &str, chunk: Option<u64>, min_chunk: Option<u64>) -> Result<String, String> {
    let given: Vec<(&str, u64)> = [("chunk", chunk), ("min_chunk", min_chunk)]
        .into_iter()
        .filter_map(|(name, n)| Some((name, n?)))
        .collect();
    let schedule = match given[..] {
        // OpenMP's `schedule(runtime)`: not a schedule but where to read one.
        [] if kind == "runtime" => return Ok("::aomp::schedule::Schedule::from_env()".to_owned()),
        [] => Schedule::parse(kind),
        [(name, n)] => {
            Schedule::parse(&format!("{kind},{n}")).filter(|s| numeric_arg(s) == Some(name))
        }
        _ => None,
    };
    // `schedule` names the kind alone: a whole spec in it is not a spelling.
    if let Some(schedule) = schedule.filter(|_| !kind.contains(',')) {
        return Ok(format!("::aomp::schedule::Schedule::{schedule:?}"));
    }
    let spelled: String = given
        .iter()
        .map(|(name, n)| format!(", {name} = {n}"))
        .collect();
    let forms: Vec<String> = [
        Schedule::StaticBlock,
        Schedule::StaticCyclic,
        Schedule::DYNAMIC,
        Schedule::GUIDED,
        Schedule::BlockCyclic { chunk: 1 },
        Schedule::ADAPTIVE,
    ]
    .iter()
    .map(|s| match (s.name(), numeric_arg(s)) {
        (name, None) => format!("{name:?}"),
        (name, Some(arg)) if Schedule::parse(name).is_some() => format!("{name:?}[, {arg} = n]"),
        (name, Some(arg)) => format!("{name:?}, {arg} = n"),
    })
    .collect();
    Err(format!(
        "aomp: `#[for_loop(schedule = {kind:?}{spelled})]` is not a schedule (expected schedule = {} | \"runtime\", with n >= 1)",
        forms.join(" | ")
    ))
}

/// The body of a *for method* (`#[for_loop]`, `#[taskloop]`): its first
/// three parameters become the range the call site's construct — a `ty`
/// built by `ctor` — hands out, and the original body the closure it
/// runs over each piece.
fn for_method(f: &FnItem, attr: &str, ty: &str, ctor: &str) -> Result<String, String> {
    f.require_unit(&format!("#[{attr}] for methods cannot return a value"))?;
    let [p0, p1, p2] = f.loop_params()?;
    Ok(format!(
        "{}let __aomp_range = ::aomp::range::LoopRange::new({p0} as i64, {p1} as i64, {p2} as i64);\n\
         __aomp_site.execute(__aomp_range, |{p0}, {p1}, {p2}| {});",
        call_site(ty, ctor),
        f.body
    ))
}

/// `@For` — the function is a *for method*: its first three `i64`
/// parameters are the loop `(start, end, step)`, rewritten per thread
/// according to the schedule (paper Figures 10 and 11).
///
/// Arguments: `schedule = "staticBlock" | "staticCyclic" | "dynamic" |
/// "guided" | "blockCyclic" | "adaptive" | "runtime"` (default
/// `staticBlock`), `chunk = <int>` (dynamic; required by blockCyclic),
/// `min_chunk = <int>` (guided/adaptive), `nowait`. The schedule
/// arguments are validated at expansion time by
/// `aomp::schedule::Schedule::parse`: a zero, a missing required `chunk`
/// or an argument the schedule does not take is a compile error (see the
/// crate-level schedule table).
#[proc_macro_attribute]
pub fn for_loop(attr: TokenStream, item: TokenStream) -> TokenStream {
    expand(item, |f| {
        let mut kind = Schedule::StaticBlock.name().to_owned();
        let (mut chunk, mut min_chunk, mut nowait) = (None, None, "");
        for arg in parse_attr_args(attr)? {
            match arg.name.as_str() {
                "schedule" => kind = arg.str()?,
                "chunk" => chunk = Some(arg.int()?),
                "min_chunk" => min_chunk = Some(arg.int()?),
                "nowait" => nowait = ".nowait()",
                other => {
                    let expected = "schedule/chunk/min_chunk/nowait";
                    return Err(unknown_arg("for_loop", other, expected));
                }
            }
        }
        let schedule = schedule_expr(&kind, chunk, min_chunk)?;
        let ctor = format!("::aomp::workshare::ForConstruct::new({schedule}){nowait}");
        for_method(f, "for_loop", "::aomp::workshare::ForConstruct", &ctor)
    })
}

/// `#[critical]` and `#[replicated]` (`what`, for argument errors): the
/// body is a section of the call site's own `CriticalHandle`, or with
/// `id = "name"` of the process-wide named one.
fn section(attr: TokenStream, item: TokenStream, what: &str) -> TokenStream {
    const HANDLE: &str = "::aomp::critical::CriticalHandle";
    expand(item, |f| {
        let mut init = format!("{HANDLE}::new()");
        for arg in parse_attr_args(attr)? {
            match arg.name.as_str() {
                "id" => init = format!("{HANDLE}::named({:?})", arg.str()?),
                other => return Err(unknown_arg(what, other, "`id = \"name\"`")),
            }
        }
        Ok(format!(
            "{}__aomp_site.run(|| {})",
            call_site(HANDLE, &init),
            f.body
        ))
    })
}

/// `@Critical` — the body executes in mutual exclusion. With
/// `id = "name"` the process-wide named lock is used (sharable across
/// type-unrelated call sites, as the paper extends Java `synchronized`);
/// without an id, a lock private to this function.
#[proc_macro_attribute]
pub fn critical(attr: TokenStream, item: TokenStream) -> TokenStream {
    section(attr, item, "critical")
}

/// `@Replicated` — [`macro@critical`] under another name: the same
/// owner-word lock, the body run on the caller, and `id = "name"` in the
/// one name space `#[critical(id = …)]` uses. Flat combining lost to that
/// lock at every section size measured, and node replication's NUMA win
/// needs more than one node; replicated *data* is `aomp::nr::Replicated`.
#[proc_macro_attribute]
pub fn replicated(attr: TokenStream, item: TokenStream) -> TokenStream {
    section(attr, item, "replicated")
}

/// `@BarrierBefore` — team barrier before the body executes.
#[proc_macro_attribute]
pub fn barrier_before(_attr: TokenStream, item: TokenStream) -> TokenStream {
    expand(item, |f| Ok(format!("::aomp::ctx::barrier();\n{}", f.body)))
}

/// `@BarrierAfter` — team barrier after the body completes.
#[proc_macro_attribute]
pub fn barrier_after(_attr: TokenStream, item: TokenStream) -> TokenStream {
    expand(item, |f| {
        Ok(format!(
            "let __aomp_result = {};\n::aomp::ctx::barrier();\n__aomp_result",
            f.body
        ))
    })
}

/// `@Master` — only the team master executes the body. If the function
/// returns a value it is broadcast to every team thread (paper §III-C);
/// the return type must then be `Clone + Send + 'static`.
#[proc_macro_attribute]
pub fn master(_attr: TokenStream, item: TokenStream) -> TokenStream {
    gate(item, "::aomp::sync::Master")
}

/// `@Single` — the first-arriving team thread executes the body; a return
/// value is broadcast to the team.
#[proc_macro_attribute]
pub fn single(_attr: TokenStream, item: TokenStream) -> TokenStream {
    gate(item, "::aomp::sync::Single")
}

fn gate(item: TokenStream, construct: &str) -> TokenStream {
    expand(item, |f| {
        // Only a value needs the broadcast, and the barrier it implies.
        let run = match f.return_type() {
            None => format!("__aomp_site.run_nowait(|| {});", f.body),
            Some(_) => format!("__aomp_site.run(|| {})", f.body),
        };
        Ok(call_site(construct, &format!("<{construct}>::new()")) + &run)
    })
}

/// Parse `depend(in = EXPR, out = EXPR, inout = EXPR)` attribute tokens
/// into `Dep` constructor source text. Keys may repeat; each value is an
/// arbitrary expression evaluating to something `Into<Tag>` (a `&'static
/// str` name, `Tag::of(&x)`, `Tag::part("name", i)`, …).
fn parse_depend_args(attr: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    let mut deps = Vec::new();
    for seg in split_top_commas(&tokens) {
        let [TokenTree::Ident(kw), TokenTree::Group(g)] = &seg[..] else {
            return Err("aomp: #[task] expects `depend(in = …, out = …, inout = …)`".to_owned());
        };
        if kw.to_string() != "depend" || g.delimiter() != Delimiter::Parenthesis {
            return Err(unknown_arg("task", &kw.to_string(), "`depend(…)`"));
        }
        let clauses = parse_attr_args(g.stream())?;
        if clauses.is_empty() {
            return Err("aomp: `depend(…)` lists at least one clause".to_owned());
        }
        for clause in clauses {
            let ctor = match clause.name.as_str() {
                "in" => "input",
                "out" => "output",
                "inout" => "inout",
                other => {
                    return Err(format!(
                        "aomp: unknown depend mode `{other}` (expected in/out/inout)"
                    ))
                }
            };
            let tag = clause.expr("a tag expression")?;
            deps.push(format!("::aomp::deps::Dep::{ctor}({tag})"));
        }
    }
    Ok(deps)
}

/// `@Task` — calling the function spawns a new parallel activity that
/// executes the body and returns immediately. Parameters must be
/// `Send + 'static` (they move into the activity).
///
/// With `depend(in = …, out = …, inout = …)` clauses the activity is a
/// *dependent task*: it spawns into the ambient
/// [`aomp::deps::scope`] dependence group, ordered against earlier
/// spawns naming a conflicting tag per the OpenMP 4.x rules. Outside any
/// `scope` the body runs inline (sequential semantics). Tag expressions
/// are anything `Into<aomp::deps::Tag>` — a `&'static str`,
/// `Tag::of(&x)`, `Tag::part("name", i)`.
#[proc_macro_attribute]
pub fn task(attr: TokenStream, item: TokenStream) -> TokenStream {
    expand(item, |f| {
        f.require_unit("#[task] functions cannot return a value; use #[future_task]")?;
        let deps = parse_depend_args(attr)?;
        Ok(if deps.is_empty() {
            format!("::aomp::task::spawn(move || {});", f.body)
        } else {
            format!(
                "::aomp::deps::spawn_depend(::std::vec![{}], move || {});",
                deps.join(", "),
                f.body
            )
        })
    })
}

/// `taskloop` — the function is a *for method* (first three `i64`
/// parameters are `(start, end, step)`) executed as OpenMP 4.5
/// `taskloop`: the adaptive `@For` with a trailing barrier, encountered
/// by every member. Outside a parallel region the range runs inline.
///
/// Arguments: `min_chunk = <int>` — the dispenser's min-chunk floor
/// (OpenMP `grainsize`); defaults to the adaptive schedule's floor.
#[proc_macro_attribute]
pub fn taskloop(attr: TokenStream, item: TokenStream) -> TokenStream {
    expand(item, |f| {
        let mut ctor = "::aomp::deps::TaskloopConstruct::new()".to_owned();
        for arg in parse_attr_args(attr)? {
            match arg.name.as_str() {
                "min_chunk" => ctor.push_str(&format!(".min_chunk({}u64)", arg.int()?)),
                other => {
                    return Err(format!(
                    "aomp: unknown #[taskloop] argument `{other}` (expected `min_chunk = <int>`)"
                ))
                }
            }
        }
        for_method(f, "taskloop", "::aomp::deps::TaskloopConstruct", &ctor)
    })
}

/// `@FutureTask` — calling the function spawns an activity computing the
/// body and returns an `aomp::task::FutureTask<T>` whose
/// `get` is the `@FutureResult`
/// synchronisation point. The declared return type `T` becomes
/// `FutureTask<T>` in the rewritten signature.
#[proc_macro_attribute]
pub fn future_task(_attr: TokenStream, item: TokenStream) -> TokenStream {
    expand(item, |f| {
        let (arrow_idx, ret_ty) = f
            .return_type()
            .ok_or("#[future_task] requires a return type; use #[task] for void activities")?;
        let future: TokenStream = format!("-> ::aomp::task::FutureTask<{ret_ty}>")
            .parse()
            .map_err(|e| format!("aomp: generated code failed to parse: {e}"))?;
        f.header.truncate(arrow_idx);
        f.header.extend(future);
        Ok(format!(
            "::aomp::task::spawn_future(move || -> {ret_ty} {})",
            f.body
        ))
    })
}

#[cfg(test)]
mod tests;
