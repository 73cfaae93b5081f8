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
//! | `@Parallel[(threads=n)]` | `#[parallel]`, `#[parallel(threads = 4)]`, `#[parallel(cancellable, stall_deadline_ms = 200)]` |
//! | `@For[(schedule=…)]` | `#[for_loop]`, `#[for_loop(schedule = "staticCyclic")]`, `#[for_loop(schedule = "dynamic", chunk = 8)]` |
//! | `@Critical[(id=name)]` | `#[critical]`, `#[critical(id = "lockname")]` |
//! | `@Critical` via flat combining | `#[replicated]`, `#[replicated(id = "name")]` |
//! | `@BarrierBefore` / `@BarrierAfter` | `#[barrier_before]` / `#[barrier_after]` |
//! | `@Master` | `#[master]` (broadcasts the return value, if any) |
//! | `@Single` | `#[single]` (ditto) |
//! | `@Task` | `#[task]` (detached activity), `#[task(depend(in = "a", out = "b"))]` (dependent task) |
//! | `@FutureTask` + `@FutureResult` | `#[future_task]` (returns `FutureTask<T>`) |
//! | OpenMP 4.5 `taskloop` | `#[taskloop]`, `#[taskloop(min_chunk = 8)]` (lazily-splitting range task) |
//!
//! `@ThreadLocalField`, `@Reduce`, `@Ordered`, `@Reader`/`@Writer` are
//! data- or scope-coupled constructs: use the `aomp` runtime API or the
//! pointcut style (`aomp-weaver`) for those.
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

use proc_macro::{Delimiter, Group, TokenStream, TokenTree};

/// Emit a `compile_error!` with the given message.
fn compile_err(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("compile_error parses")
}

/// Split a function item into its header (attrs, visibility, signature)
/// and its brace-delimited body — the last token of any `fn` item.
fn split_fn(item: TokenStream) -> Result<(Vec<TokenTree>, Group), String> {
    let tokens: Vec<TokenTree> = item.into_iter().collect();
    match tokens.split_last() {
        Some((TokenTree::Group(g), rest)) if g.delimiter() == Delimiter::Brace => {
            Ok((rest.to_vec(), g.clone()))
        }
        _ => Err("aomp attribute macros apply to functions with a body".to_owned()),
    }
}

/// Index of the parameter-list group: the first parenthesis group after
/// the `fn` keyword.
fn param_group_index(header: &[TokenTree]) -> Result<usize, String> {
    let mut seen_fn = false;
    for (i, t) in header.iter().enumerate() {
        match t {
            TokenTree::Ident(id) if id.to_string() == "fn" => seen_fn = true,
            TokenTree::Group(g) if seen_fn && g.delimiter() == Delimiter::Parenthesis => {
                return Ok(i)
            }
            _ => {}
        }
    }
    Err("aomp: could not find the function parameter list".to_owned())
}

/// The `-> Type` return tokens after the parameter list, if any, as
/// `(arrow_index, type_string)`.
fn return_type(header: &[TokenTree], params_idx: usize) -> Option<(usize, String)> {
    let rest = &header[params_idx + 1..];
    for (off, pair) in rest.windows(2).enumerate() {
        if let (TokenTree::Punct(a), TokenTree::Punct(b)) = (&pair[0], &pair[1]) {
            if a.as_char() == '-' && b.as_char() == '>' {
                let ty: TokenStream = rest[off + 2..].iter().cloned().collect();
                return Some((params_idx + 1 + off, ty.to_string()));
            }
        }
    }
    None
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

/// Names of the first `n` non-receiver parameters (the identifier before
/// each top-level `:`).
fn leading_param_names(params: &Group, n: usize) -> Result<Vec<String>, String> {
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
        if names.len() == n {
            return Ok(names);
        }
    }
    Err(format!(
        "aomp: expected at least {n} loop-bound parameters (start, end, step)"
    ))
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
    if tokens.is_empty() {
        return Ok(out);
    }
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

fn int_value(arg: &AttrArg) -> Result<u64, String> {
    let v = arg
        .value
        .as_deref()
        .ok_or_else(|| format!("aomp: `{}` needs an integer value", arg.name))?;
    v.replace('_', "")
        .parse::<u64>()
        .map_err(|_| format!("aomp: `{}` expects an integer, got `{v}`", arg.name))
}

fn bool_value(arg: &AttrArg) -> Result<bool, String> {
    match arg.value.as_deref() {
        None => Ok(true),
        Some("true") => Ok(true),
        Some("false") => Ok(false),
        Some(v) => Err(format!("aomp: `{}` expects a bool, got `{v}`", arg.name)),
    }
}

fn str_value(arg: &AttrArg) -> Result<String, String> {
    let v = arg
        .value
        .as_deref()
        .ok_or_else(|| format!("aomp: `{}` needs a string value", arg.name))?;
    let v = v.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Ok(v[1..v.len() - 1].to_owned())
    } else {
        Err(format!(
            "aomp: `{}` expects a string literal, got `{v}`",
            arg.name
        ))
    }
}

/// Re-emit the function with `new_body` (statement text) as its body.
fn rewrap(header: Vec<TokenTree>, new_body: &str) -> TokenStream {
    let header_ts: TokenStream = header.into_iter().collect();
    let src = format!("{header_ts} {{ {new_body} }}");
    src.parse()
        .unwrap_or_else(|e| compile_err(&format!("aomp: generated code failed to parse: {e}")))
}

/// `@Parallel` — the function execution becomes a parallel region: a team
/// of threads each execute the body, with an implicit join (paper
/// Figure 9).
///
/// Arguments: `threads = <int>` (team size), `nested = <bool>`,
/// `only_if = <expr>` (OpenMP's `if` clause, evaluated at call time),
/// `cancellable` (honour `cancel_team()`, OpenMP 4.0 `cancel`),
/// `stall_deadline_ms = <int>` (arm the stall watchdog; a team stuck in
/// its synchronisation primitives is cancelled and diagnosed instead of
/// deadlocking — see `aomp::region` for what the watchdog can and
/// cannot interrupt), and `runtime = <expr>` (run the region on an
/// explicit [`aomp::Runtime`] instead of the ambient one; the
/// expression is evaluated at call time and borrowed).
#[proc_macro_attribute]
pub fn parallel(attr: TokenStream, item: TokenStream) -> TokenStream {
    let (header, body) = match split_fn(item) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let args = match parse_attr_args(attr) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let params_idx = match param_group_index(&header) {
        Ok(i) => i,
        Err(e) => return compile_err(&e),
    };
    if return_type(&header, params_idx).is_some() {
        return compile_err(
            "#[parallel] regions cannot return a value (the paper's parallel regions are void)",
        );
    }
    let mut cfg = String::new();
    for arg in &args {
        match arg.name.as_str() {
            "threads" => match int_value(arg) {
                Ok(t) => cfg.push_str(&format!("__aomp_cfg = __aomp_cfg.threads({t}usize);")),
                Err(e) => return compile_err(&e),
            },
            "nested" => match bool_value(arg) {
                Ok(n) => cfg.push_str(&format!("__aomp_cfg = __aomp_cfg.nested({n});")),
                Err(e) => return compile_err(&e),
            },
            "only_if" => match &arg.value {
                Some(e) => cfg.push_str(&format!("__aomp_cfg = __aomp_cfg.only_if({e});")),
                None => return compile_err("aomp: `only_if` needs a value"),
            },
            "cancellable" => match bool_value(arg) {
                Ok(c) => cfg.push_str(&format!("__aomp_cfg = __aomp_cfg.cancellable({c});")),
                Err(e) => return compile_err(&e),
            },
            "stall_deadline_ms" => match int_value(arg) {
                Ok(ms) => cfg.push_str(&format!(
                    "__aomp_cfg = __aomp_cfg.stall_deadline(::std::time::Duration::from_millis({ms}u64));"
                )),
                Err(e) => return compile_err(&e),
            },
            "runtime" => match &arg.value {
                Some(e) => {
                    cfg.push_str(&format!("__aomp_cfg = __aomp_cfg.runtime(&({e}));"))
                }
                None => return compile_err("aomp: `runtime` needs a value"),
            },
            other => {
                return compile_err(&format!(
                    "aomp: unknown #[parallel] argument `{other}` (expected threads/nested/only_if/cancellable/stall_deadline_ms/runtime)"
                ))
            }
        }
    }
    let new_body = format!(
        "#[allow(unused_mut)] let mut __aomp_cfg = ::aomp::region::RegionConfig::new();\n\
         {cfg}\n\
         ::aomp::region::parallel_with(__aomp_cfg, || {body});"
    );
    rewrap(header, &new_body)
}

/// `@For` — the function is a *for method*: its first three `i64`
/// parameters are the loop `(start, end, step)`, rewritten per thread
/// according to the schedule (paper Figures 10 and 11).
///
/// Arguments: `schedule = "staticBlock" | "staticCyclic" | "dynamic" |
/// "guided" | "blockCyclic" | "adaptive" | "runtime"` (default
/// `staticBlock`), `chunk = <int>` (dynamic/blockCyclic),
/// `min_chunk = <int>` (guided/adaptive), `nowait`.
#[proc_macro_attribute]
pub fn for_loop(attr: TokenStream, item: TokenStream) -> TokenStream {
    let (header, body) = match split_fn(item) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let args = match parse_attr_args(attr) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let mut schedule = String::from("staticBlock");
    let mut chunk: u64 = 1;
    let mut min_chunk: u64 = 1;
    let mut nowait = false;
    for arg in &args {
        match arg.name.as_str() {
            "schedule" => match str_value(arg) {
                Ok(s) => schedule = s,
                Err(e) => return compile_err(&e),
            },
            "chunk" => match int_value(arg) {
                Ok(c) => chunk = c,
                Err(e) => return compile_err(&e),
            },
            "min_chunk" => match int_value(arg) {
                Ok(c) => min_chunk = c,
                Err(e) => return compile_err(&e),
            },
            "nowait" => nowait = true,
            other => return compile_err(&format!("aomp: unknown #[for_loop] argument `{other}`")),
        }
    }
    let sched_expr = match schedule.as_str() {
        "staticBlock" | "static_block" | "static" => "::aomp::schedule::Schedule::StaticBlock".to_owned(),
        "staticCyclic" | "static_cyclic" | "cyclic" => "::aomp::schedule::Schedule::StaticCyclic".to_owned(),
        "dynamic" => format!("::aomp::schedule::Schedule::Dynamic {{ chunk: {chunk}u64 }}"),
        "guided" => format!("::aomp::schedule::Schedule::Guided {{ min_chunk: {min_chunk}u64 }}"),
        "blockCyclic" | "block_cyclic" => {
            format!("::aomp::schedule::Schedule::BlockCyclic {{ chunk: {chunk}u64 }}")
        }
        "adaptive" => {
            format!("::aomp::schedule::Schedule::Adaptive {{ min_chunk: {min_chunk}u64 }}")
        }
        "runtime" => "::aomp::schedule::Schedule::from_env()".to_owned(),
        other => {
            return compile_err(&format!(
                "unknown schedule `{other}` (expected staticBlock/staticCyclic/dynamic/guided/blockCyclic/adaptive/runtime)"
            ))
        }
    };
    let params_idx = match param_group_index(&header) {
        Ok(i) => i,
        Err(e) => return compile_err(&e),
    };
    if return_type(&header, params_idx).is_some() {
        return compile_err("#[for_loop] for methods cannot return a value");
    }
    let params = match &header[params_idx] {
        TokenTree::Group(g) => g.clone(),
        _ => unreachable!("param_group_index returns a group index"),
    };
    let names = match leading_param_names(&params, 3) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let (p0, p1, p2) = (&names[0], &names[1], &names[2]);
    let ctor = if nowait {
        format!("::aomp::workshare::ForConstruct::new({sched_expr}).nowait()")
    } else {
        format!("::aomp::workshare::ForConstruct::new({sched_expr})")
    };
    let new_body = format!(
        "static __AOMP_FOR: ::std::sync::OnceLock<::aomp::workshare::ForConstruct> = ::std::sync::OnceLock::new();\n\
         let __aomp_range = ::aomp::range::LoopRange::new({p0} as i64, {p1} as i64, {p2} as i64);\n\
         __AOMP_FOR.get_or_init(|| {ctor}).execute(__aomp_range, |{p0}, {p1}, {p2}| {body});"
    );
    rewrap(header, &new_body)
}

/// `@Critical` — the body executes in mutual exclusion. With
/// `id = "name"` the process-wide named lock is used (sharable across
/// type-unrelated call sites, as the paper extends Java `synchronized`);
/// without an id, a lock private to this function.
#[proc_macro_attribute]
pub fn critical(attr: TokenStream, item: TokenStream) -> TokenStream {
    let (header, body) = match split_fn(item) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let args = match parse_attr_args(attr) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let mut id: Option<String> = None;
    for arg in &args {
        match arg.name.as_str() {
            "id" => match str_value(arg) {
                Ok(s) => id = Some(s),
                Err(e) => return compile_err(&e),
            },
            other => {
                return compile_err(&format!(
                    "aomp: unknown #[critical] argument `{other}` (expected `id = \"name\"`)"
                ))
            }
        }
    }
    let handle = match &id {
        Some(name) => format!("::aomp::critical::CriticalHandle::named({name:?})"),
        None => "::aomp::critical::CriticalHandle::new()".to_owned(),
    };
    let new_body = format!(
        "static __AOMP_CRIT: ::std::sync::OnceLock<::aomp::critical::CriticalHandle> = ::std::sync::OnceLock::new();\n\
         __AOMP_CRIT.get_or_init(|| {handle}).run(|| {body})"
    );
    rewrap(header, &new_body)
}

/// `@Critical` served by flat combining — a scalable drop-in for
/// [`macro@critical`] on contended sections. The body still executes in
/// mutual exclusion, but instead of every thread fighting for one lock,
/// waiting threads publish their section and the current lock holder
/// (the *combiner*) runs a whole batch in one lock tenure
/// (`aomp::nr::Combiner`). With `id = "name"` a process-wide named
/// combiner is shared across type-unrelated call sites, mirroring
/// `#[critical(id = …)]`; without an id, a combiner private to this
/// function.
///
/// Unlike `#[critical]`, the body may run on a *different* thread (the
/// combiner), so it must be `Send` and close only over `Sync` shared
/// state — which is what a shared-state critical section closes over
/// anyway. Bodies needing thread affinity should stay on `#[critical]`.
#[proc_macro_attribute]
pub fn replicated(attr: TokenStream, item: TokenStream) -> TokenStream {
    let (header, body) = match split_fn(item) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let args = match parse_attr_args(attr) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let mut id: Option<String> = None;
    for arg in &args {
        match arg.name.as_str() {
            "id" => match str_value(arg) {
                Ok(s) => id = Some(s),
                Err(e) => return compile_err(&e),
            },
            other => {
                return compile_err(&format!(
                    "aomp: unknown #[replicated] argument `{other}` (expected `id = \"name\"`)"
                ))
            }
        }
    }
    let combiner = match &id {
        Some(name) => format!("::aomp::nr::Combiner::named({name:?})"),
        None => "::std::sync::Arc::new(::aomp::nr::Combiner::new())".to_owned(),
    };
    let new_body = format!(
        "static __AOMP_REPL: ::std::sync::OnceLock<::std::sync::Arc<::aomp::nr::Combiner>> = ::std::sync::OnceLock::new();\n\
         __AOMP_REPL.get_or_init(|| {combiner}).run(|| {body})"
    );
    rewrap(header, &new_body)
}

/// `@BarrierBefore` — team barrier before the body executes.
#[proc_macro_attribute]
pub fn barrier_before(_attr: TokenStream, item: TokenStream) -> TokenStream {
    let (header, body) = match split_fn(item) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    rewrap(header, &format!("::aomp::ctx::barrier();\n{body}"))
}

/// `@BarrierAfter` — team barrier after the body completes.
#[proc_macro_attribute]
pub fn barrier_after(_attr: TokenStream, item: TokenStream) -> TokenStream {
    let (header, body) = match split_fn(item) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    rewrap(
        header,
        &format!("let __aomp_result = {body};\n::aomp::ctx::barrier();\n__aomp_result"),
    )
}

/// `@Master` — only the team master executes the body. If the function
/// returns a value it is broadcast to every team thread (paper §III-C);
/// the return type must then be `Clone + Send + 'static`.
#[proc_macro_attribute]
pub fn master(_attr: TokenStream, item: TokenStream) -> TokenStream {
    gate_macro(item, "::aomp::sync::Master")
}

/// `@Single` — the first-arriving team thread executes the body; a return
/// value is broadcast to the team.
#[proc_macro_attribute]
pub fn single(_attr: TokenStream, item: TokenStream) -> TokenStream {
    gate_macro(item, "::aomp::sync::Single")
}

fn gate_macro(item: TokenStream, construct: &str) -> TokenStream {
    let (header, body) = match split_fn(item) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let params_idx = match param_group_index(&header) {
        Ok(i) => i,
        Err(e) => return compile_err(&e),
    };
    let is_unit = return_type(&header, params_idx).is_none();
    let new_body = if is_unit {
        format!(
            "static __AOMP_GATE: ::std::sync::OnceLock<{construct}> = ::std::sync::OnceLock::new();\n\
             __AOMP_GATE.get_or_init(<{construct}>::new).run_nowait(|| {body});"
        )
    } else {
        format!(
            "static __AOMP_GATE: ::std::sync::OnceLock<{construct}> = ::std::sync::OnceLock::new();\n\
             __AOMP_GATE.get_or_init(<{construct}>::new).run(|| {body})"
        )
    };
    rewrap(header, &new_body)
}

/// Parse `depend(in = EXPR, out = EXPR, inout = EXPR)` attribute tokens
/// into `Dep` constructor source text. Keys may repeat; each value is an
/// arbitrary expression evaluating to something `Into<Tag>` (a `&'static
/// str` name, `Tag::of(&x)`, `Tag::part("name", i)`, …).
fn parse_depend_args(attr: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = attr.into_iter().collect();
    if tokens.is_empty() {
        return Ok(Vec::new());
    }
    let mut deps = Vec::new();
    for seg in split_top_commas(&tokens) {
        let [TokenTree::Ident(kw), TokenTree::Group(g)] = &seg[..] else {
            return Err("aomp: #[task] expects `depend(in = …, out = …, inout = …)`".to_owned());
        };
        if kw.to_string() != "depend" || g.delimiter() != Delimiter::Parenthesis {
            return Err(format!(
                "aomp: unknown #[task] argument `{kw}` (expected `depend(…)`)"
            ));
        }
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        for clause in split_top_commas(&inner) {
            let mut it = clause.into_iter();
            let mode = match it.next() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                other => {
                    return Err(format!(
                        "aomp: expected `in`/`out`/`inout` in depend(…), found {other:?}"
                    ))
                }
            };
            let ctor = match mode.as_str() {
                "in" => "input",
                "out" => "output",
                "inout" => "inout",
                other => {
                    return Err(format!(
                        "aomp: unknown depend mode `{other}` (expected in/out/inout)"
                    ))
                }
            };
            match it.next() {
                Some(TokenTree::Punct(p)) if p.as_char() == '=' => {}
                other => {
                    return Err(format!(
                        "aomp: expected `=` after depend mode `{mode}`, found {other:?}"
                    ))
                }
            }
            let expr: TokenStream = it.collect();
            let expr = expr.to_string();
            if expr.is_empty() {
                return Err(format!("aomp: `depend({mode} = )` needs a tag expression"));
            }
            deps.push(format!("::aomp::deps::Dep::{ctor}({expr})"));
        }
    }
    if deps.is_empty() {
        return Err("aomp: `depend(…)` lists at least one clause".to_owned());
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
    let (header, body) = match split_fn(item) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let params_idx = match param_group_index(&header) {
        Ok(i) => i,
        Err(e) => return compile_err(&e),
    };
    if return_type(&header, params_idx).is_some() {
        return compile_err("#[task] functions cannot return a value; use #[future_task]");
    }
    let deps = match parse_depend_args(attr) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    if deps.is_empty() {
        return rewrap(header, &format!("::aomp::task::spawn(move || {body});"));
    }
    let list = deps.join(", ");
    rewrap(
        header,
        &format!("::aomp::deps::spawn_depend(::std::vec![{list}], move || {body});"),
    )
}

/// `taskloop` — the function is a *for method* (first three `i64`
/// parameters are `(start, end, step)`) executed as a lazily-splitting
/// range task: the whole range starts as one task and sheds half of the
/// remainder only when another team member is observed waiting, at
/// min-chunk bite boundaries (OpenMP 4.5 `taskloop` with a work-stealing
/// flavour). Outside a parallel region the range runs inline.
///
/// Arguments: `min_chunk = <int>` — the bite/split granule (OpenMP
/// `grainsize`); defaults to the adaptive schedule's floor.
#[proc_macro_attribute]
pub fn taskloop(attr: TokenStream, item: TokenStream) -> TokenStream {
    let (header, body) = match split_fn(item) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let args = match parse_attr_args(attr) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let mut ctor = "::aomp::deps::TaskloopConstruct::new()".to_owned();
    for arg in &args {
        match arg.name.as_str() {
            "min_chunk" => match int_value(arg) {
                Ok(c) => ctor.push_str(&format!(".min_chunk({c}u64)")),
                Err(e) => return compile_err(&e),
            },
            other => {
                return compile_err(&format!(
                    "aomp: unknown #[taskloop] argument `{other}` (expected `min_chunk = <int>`)"
                ))
            }
        }
    }
    let params_idx = match param_group_index(&header) {
        Ok(i) => i,
        Err(e) => return compile_err(&e),
    };
    if return_type(&header, params_idx).is_some() {
        return compile_err("#[taskloop] for methods cannot return a value");
    }
    let params = match &header[params_idx] {
        TokenTree::Group(g) => g.clone(),
        _ => unreachable!("param_group_index returns a group index"),
    };
    let names = match leading_param_names(&params, 3) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let (p0, p1, p2) = (&names[0], &names[1], &names[2]);
    let new_body = format!(
        "static __AOMP_TL: ::std::sync::OnceLock<::aomp::deps::TaskloopConstruct> = ::std::sync::OnceLock::new();\n\
         let __aomp_range = ::aomp::range::LoopRange::new({p0} as i64, {p1} as i64, {p2} as i64);\n\
         __AOMP_TL.get_or_init(|| {ctor}).execute(__aomp_range, |{p0}, {p1}, {p2}| {body});"
    );
    rewrap(header, &new_body)
}

/// `@FutureTask` — calling the function spawns an activity computing the
/// body and returns an `aomp::task::FutureTask<T>` whose
/// `get` is the `@FutureResult`
/// synchronisation point. The declared return type `T` becomes
/// `FutureTask<T>` in the rewritten signature.
#[proc_macro_attribute]
pub fn future_task(_attr: TokenStream, item: TokenStream) -> TokenStream {
    let (header, body) = match split_fn(item) {
        Ok(v) => v,
        Err(e) => return compile_err(&e),
    };
    let params_idx = match param_group_index(&header) {
        Ok(i) => i,
        Err(e) => return compile_err(&e),
    };
    let Some((arrow_idx, ret_ty)) = return_type(&header, params_idx) else {
        return compile_err(
            "#[future_task] requires a return type; use #[task] for void activities",
        );
    };
    let prefix: TokenStream = header[..arrow_idx].iter().cloned().collect();
    let src = format!(
        "{prefix} -> ::aomp::task::FutureTask<{ret_ty}> {{ ::aomp::task::spawn_future(move || -> {ret_ty} {body}) }}"
    );
    src.parse()
        .unwrap_or_else(|e| compile_err(&format!("aomp: generated code failed to parse: {e}")))
}
