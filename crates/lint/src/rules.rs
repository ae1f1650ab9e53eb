//! The individual lint rules. Each rule is a plain function from the lint
//! view of a file (token stream + scrubbed lines) to a list of violations,
//! so every rule is testable in isolation on synthetic sources.
//!
//! Matching is token-sequence based (see [`crate::Tok`]): `.unwrap(` is the
//! three tokens `.` `unwrap` `(` wherever whitespace or newlines fall,
//! string/char literal contents can never match, and identifier boundaries
//! are exact by construction (`bf64x` is one token, not a home for `f64`).

use crate::{LintFile, Tok, TokKind, Violation};

/// Rule names, in one place so the allow parser and docs stay in sync.
pub const NO_UNWRAP: &str = "no-unwrap";
/// See [`NO_UNWRAP`].
pub const GRADCHECK_COVERAGE: &str = "gradcheck-coverage";
/// See [`NO_UNWRAP`].
pub const NO_THREAD_RNG: &str = "no-thread-rng";
/// See [`NO_UNWRAP`].
pub const NO_F64_IN_KERNELS: &str = "no-f64-in-kernels";
/// See [`NO_UNWRAP`].
pub const ALLOW_SYNTAX: &str = "allow-syntax";
/// See [`NO_UNWRAP`].
pub const NO_NARROWING_CAST: &str = "no-narrowing-cast";
/// See [`NO_UNWRAP`].
pub const NO_PRINTLN_IN_LIB: &str = "no-println-in-lib";
/// See [`NO_UNWRAP`].
pub const UNSAFE_NEEDS_SAFETY_COMMENT: &str = "unsafe-needs-safety-comment";
/// See [`NO_UNWRAP`].
pub const NO_CATCH_UNWIND_OUTSIDE_RESILIENCE: &str = "no-catch-unwind-outside-resilience";
/// See [`NO_UNWRAP`].
pub const NO_FLOAT_EQ: &str = "no-float-eq";
/// See [`NO_UNWRAP`].
pub const NO_VEC_ALLOC_IN_KERNEL_LOOP: &str = "no-vec-alloc-in-kernel-loop";
/// See [`NO_UNWRAP`].
pub const NO_RAW_INSTANT_IN_LIB: &str = "no-raw-instant-in-lib";
/// See [`NO_UNWRAP`].
pub const ATOMIC_ORDERING_NEEDS_COMMENT: &str = "atomic-ordering-needs-comment";
/// See [`NO_UNWRAP`].
pub const NO_BLOCKING_SLEEP_IN_LIB: &str = "no-blocking-sleep-in-lib";

/// All rule names, for validating `lint:allow(..)` directives.
pub const ALL_RULES: &[&str] = &[
    NO_UNWRAP,
    GRADCHECK_COVERAGE,
    NO_THREAD_RNG,
    NO_F64_IN_KERNELS,
    ALLOW_SYNTAX,
    NO_NARROWING_CAST,
    NO_PRINTLN_IN_LIB,
    UNSAFE_NEEDS_SAFETY_COMMENT,
    NO_CATCH_UNWIND_OUTSIDE_RESILIENCE,
    NO_FLOAT_EQ,
    NO_VEC_ALLOC_IN_KERNEL_LOOP,
    NO_RAW_INSTANT_IN_LIB,
    ATOMIC_ORDERING_NEEDS_COMMENT,
    NO_BLOCKING_SLEEP_IN_LIB,
];

/// True for paths whose panics are acceptable: test code, benchmarks,
/// executables and examples (a binary's `main` may reasonably die loudly).
pub fn is_exempt_from_panics(rel_path: &str) -> bool {
    rel_path.contains("/tests/")
        || rel_path.starts_with("tests/")
        || rel_path.contains("/benches/")
        || rel_path.contains("/examples/")
        || rel_path.starts_with("examples/")
        || rel_path.contains("/src/bin/")
}

/// Emits one violation for the token at `tok` unless it sits in a test
/// region or under a reasoned allow.
fn flag(
    file: &LintFile,
    tok: &Tok,
    rule: &'static str,
    skip_tests: bool,
    msg: String,
    out: &mut Vec<Violation>,
) {
    if skip_tests && file.tok_in_test_region(tok) {
        return;
    }
    if file.is_allowed(tok.line, rule) {
        return;
    }
    out.push(Violation {
        rule,
        file: file.rel_path.clone(),
        line: tok.line + 1,
        msg,
    });
}

/// True when the token at `i` starts the sequence `.` `name` `(`.
fn is_method_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].is_punct('.')
        && toks.get(i + 1).is_some_and(|t| t.is_ident(name))
        && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
}

/// True when the token at `i` starts a macro invocation `name` `!` `(`/`[`/`{`.
fn is_macro_call(toks: &[Tok], i: usize, name: &str) -> bool {
    toks[i].is_ident(name)
        && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
        && toks
            .get(i + 2)
            .is_some_and(|t| t.is_punct('(') || t.is_punct('[') || t.is_punct('{'))
}

/// `no-unwrap`: forbids `.unwrap()`, `.expect(` and `panic!(` in library
/// runtime paths. `assert!`/`debug_assert!` stay allowed — stating invariants
/// is encouraged; swallowing `Result`s is not.
pub fn no_unwrap(file: &LintFile, out: &mut Vec<Violation>) {
    if is_exempt_from_panics(&file.rel_path) {
        return;
    }
    for i in 0..file.tokens.len() {
        let hit = if is_method_call(&file.tokens, i, "unwrap") {
            Some((".unwrap()", &file.tokens[i + 1]))
        } else if is_method_call(&file.tokens, i, "expect") {
            Some((".expect(", &file.tokens[i + 1]))
        } else if is_macro_call(&file.tokens, i, "panic") {
            // `core::panic!(` matches too — equally banned, no need to
            // distinguish the path-qualified form.
            Some(("panic!(", &file.tokens[i]))
        } else {
            None
        };
        if let Some((pat, tok)) = hit {
            let msg = format!(
                "`{pat}` in library runtime path (col {}): return a Result or add \
                 `// lint:allow(no-unwrap): <reason>`",
                tok.col + 1
            );
            flag(file, tok, NO_UNWRAP, true, msg, out);
        }
    }
}

/// `no-thread-rng`: forbids unseeded randomness everywhere (including tests —
/// flaky tests are still flaky). The vendored `rand` stub does not even
/// provide these entry points; the lint keeps it that way at the source level.
pub fn no_thread_rng(file: &LintFile, out: &mut Vec<Violation>) {
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let pat = if toks[i].is_ident("thread_rng") {
            Some("thread_rng")
        } else if toks[i].is_ident("from_entropy") {
            Some("from_entropy")
        } else if toks[i].is_ident("rand")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("random"))
        {
            Some("rand::random")
        } else {
            None
        };
        if let Some(pat) = pat {
            let msg = format!(
                "`{pat}`: all randomness must flow from an explicit \
                 `StdRng::seed_from_u64` seed for reproducibility"
            );
            flag(file, &toks[i], NO_THREAD_RNG, false, msg, out);
        }
    }
}

/// Paths inside the tensor crate that are *not* kernels and legitimately use
/// `f64`: the gradcheck module's shadow evaluation widens f32 losses to f64
/// on purpose (verification infrastructure, never on a training path).
fn is_f64_exempt(rel_path: &str) -> bool {
    rel_path == "crates/tensor/src/gradcheck.rs"
}

/// `no-f64-in-kernels`: the tensor engine is `f32` end to end; a stray `f64`
/// literal or cast inside a kernel silently doubles bandwidth and diverges
/// from the accumulation order the gradcheck tolerances were tuned for.
/// `gradcheck.rs` is exempt by path — its f64 shadow arithmetic exists to
/// *verify* the f32 kernels, not to run in them.
pub fn no_f64_in_kernels(file: &LintFile, out: &mut Vec<Violation>) {
    if !file.rel_path.starts_with("crates/tensor/src") || is_f64_exempt(&file.rel_path) {
        return;
    }
    for tok in &file.tokens {
        let hit = tok.is_ident("f64") || (tok.kind == TokKind::Number && tok.text.ends_with("f64"));
        if hit {
            flag(
                file,
                tok,
                NO_F64_IN_KERNELS,
                true,
                "`f64` in an f32 tensor kernel: use f32, or justify with \
                 `// lint:allow(no-f64-in-kernels): <reason>`"
                    .to_string(),
                out,
            );
        }
    }
}

/// The tensor-kernel hot paths covered by [`NO_NARROWING_CAST`]: the dense
/// and sparse kernel sources, the parallel execution layer, and the storage
/// types whose inner loops they call into.
fn is_kernel_hot_path(rel_path: &str) -> bool {
    rel_path == "crates/tensor/src/sparse.rs"
        || rel_path == "crates/tensor/src/matrix.rs"
        || rel_path == "crates/tensor/src/par.rs"
        || rel_path.starts_with("crates/tensor/src/kernels")
}

/// `no-narrowing-cast`: forbids `as usize` / `as f32` casts in kernel hot
/// paths. A silent `as` narrowing (usize → f32 loses integer precision past
/// 2^24; float → usize saturates) inside a kernel corrupts indices or values
/// without a diagnostic; use `try_into`, explicit widening, or justify with
/// a reasoned `lint:allow`.
pub fn no_narrowing_cast(file: &LintFile, out: &mut Vec<Violation>) {
    if !is_kernel_hot_path(&file.rel_path) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_ident("as") {
            continue;
        }
        let target = match toks.get(i + 1) {
            Some(t) if t.is_ident("usize") => "as usize",
            Some(t) if t.is_ident("f32") => "as f32",
            _ => continue,
        };
        let msg = format!(
            "`{target}` narrowing cast in a kernel hot path: use `try_into`/explicit \
             widening or justify with `// lint:allow(no-narrowing-cast): <reason>`"
        );
        flag(file, &toks[i], NO_NARROWING_CAST, true, msg, out);
    }
}

/// True when the `for` at `i` heads a for-loop (`for pat in iter {`) rather
/// than a trait impl (`impl Trait for Type {`) or an HRTB (`for<'a>`): scans
/// forward for an `in` identifier before the body's opening brace.
fn for_is_loop(toks: &[Tok], i: usize) -> bool {
    let mut nesting = 0i32;
    for t in &toks[i + 1..] {
        if t.is_punct('(') || t.is_punct('[') {
            nesting += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            nesting -= 1;
        } else if t.is_punct('{') && nesting == 0 {
            return false;
        } else if t.is_ident("in") {
            return true;
        }
    }
    false
}

/// `no-vec-alloc-in-kernel-loop`: forbids `Vec::new()`, `vec![..]` and
/// `with_capacity(..)` inside loop bodies in the tensor-kernel hot paths.
/// A heap allocation per iteration turns an O(1) inner step into an
/// allocator round-trip and defeats the arena work the kernels are built
/// on; hoist the buffer above the loop or lease it from
/// `ses_tensor::scratch` (leases recycle and are exempt by construction —
/// they never spell `Vec::new` at the call site).
pub fn no_vec_alloc_in_kernel_loop(file: &LintFile, out: &mut Vec<Violation>) {
    if !is_kernel_hot_path(&file.rel_path) {
        return;
    }
    let toks = &file.tokens;
    // Brace-depth walk: `loop_opens` records the depths at which a loop
    // body opened; any token while the stack is non-empty is loop-body code.
    let mut depth = 0usize;
    let mut loop_opens: Vec<usize> = Vec::new();
    // A loop keyword was seen; the next `{` outside parens/brackets opens
    // its body.
    let mut pending = false;
    let mut pending_nesting = 0i32;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            if pending && (t.is_punct('(') || t.is_punct('[')) {
                pending_nesting += 1;
            } else if pending && (t.is_punct(')') || t.is_punct(']')) {
                pending_nesting -= 1;
            } else if t.is_punct('{') {
                depth += 1;
                if pending && pending_nesting == 0 {
                    loop_opens.push(depth);
                    pending = false;
                }
            } else if t.is_punct('}') {
                if loop_opens.last() == Some(&depth) {
                    loop_opens.pop();
                }
                depth = depth.saturating_sub(1);
            }
            continue;
        }
        if t.kind == TokKind::Ident {
            if t.is_ident("while") || t.is_ident("loop") {
                pending = true;
                pending_nesting = 0;
                continue;
            }
            if t.is_ident("for") && for_is_loop(toks, i) {
                pending = true;
                pending_nesting = 0;
                continue;
            }
        }
        if loop_opens.is_empty() {
            continue;
        }
        // `Vec :: new (`
        let vec_new = t.is_ident("Vec")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("new"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('));
        // `Type :: with_capacity (` or `. with_capacity (`
        let with_cap = t.is_ident("with_capacity")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            && i >= 1
            && (toks[i - 1].is_punct(':') || toks[i - 1].is_punct('.'));
        let what = if vec_new {
            "`Vec::new()`"
        } else if with_cap {
            "`with_capacity(..)`"
        } else if is_macro_call(toks, i, "vec") {
            "`vec![..]`"
        } else {
            continue;
        };
        let msg = format!(
            "{what} inside a kernel loop body allocates every iteration: hoist the \
             buffer above the loop or lease it from `ses_tensor::scratch`, or justify \
             with `// lint:allow(no-vec-alloc-in-kernel-loop): <reason>`"
        );
        flag(file, t, NO_VEC_ALLOC_IN_KERNEL_LOOP, true, msg, out);
    }
}

/// True for paths where ad-hoc stdio output is fine: anything already exempt
/// from panic rules (tests, benches, examples, binaries), binary crate roots,
/// and the vendored third-party stubs.
fn is_exempt_from_println(rel_path: &str) -> bool {
    is_exempt_from_panics(rel_path)
        || rel_path.ends_with("src/main.rs")
        || rel_path.starts_with("vendor/")
}

/// `no-println-in-lib`: forbids direct `println!`/`eprintln!`/`print!`/
/// `eprint!`/`dbg!` in library runtime paths. Library diagnostics must flow
/// through `ses_obs::info!`/`ses_obs::outln!` so they honour the telemetry
/// sink and can be captured, filtered, or silenced uniformly. Binaries,
/// examples, tests, benches and vendored stubs may print freely.
pub fn no_println_in_lib(file: &LintFile, out: &mut Vec<Violation>) {
    if is_exempt_from_println(&file.rel_path) {
        return;
    }
    const MACROS: [&str; 5] = ["println", "eprintln", "print", "eprint", "dbg"];
    let mut last_line = usize::MAX;
    for i in 0..file.tokens.len() {
        let Some(name) = MACROS.iter().find(|m| is_macro_call(&file.tokens, i, m)) else {
            continue;
        };
        let tok = &file.tokens[i];
        // one violation per line per rule is enough
        if tok.line == last_line {
            continue;
        }
        let before = out.len();
        let msg = format!(
            "`{name}!` in library runtime path: route output through \
             `ses_obs::info!`/`ses_obs::outln!` or justify with \
             `// lint:allow(no-println-in-lib): <reason>`"
        );
        flag(file, tok, NO_PRINTLN_IN_LIB, true, msg, out);
        if out.len() > before {
            last_line = tok.line;
        }
    }
}

/// Paths where raw `Instant::now()` stays legal: the observability crate
/// itself (it *implements* the sanctioned wrappers), plus everything already
/// exempt from panics (tests, benches, examples, binaries) and vendored
/// stubs.
fn is_exempt_from_raw_instant(rel_path: &str) -> bool {
    is_exempt_from_panics(rel_path)
        || rel_path.starts_with("crates/obs/src")
        || rel_path.starts_with("vendor/")
}

/// `no-raw-instant-in-lib`: forbids `Instant::now()` in library runtime
/// paths. Timing in lib code must go through `ses_obs::Stopwatch` (or a
/// span) so every measured interval is visible to the telemetry layer —
/// raw `Instant` timings are invisible to exporters, SLO policies and the
/// `ses-obs` analysis CLI. Tests, benches, examples, binaries, vendored
/// stubs and `crates/obs` itself are exempt.
pub fn no_raw_instant_in_lib(file: &LintFile, out: &mut Vec<Violation>) {
    if is_exempt_from_raw_instant(&file.rel_path) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let hit = toks[i].is_ident("Instant")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("now"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('));
        if hit {
            let msg = "`Instant::now()` in library runtime path: use \
                       `ses_obs::Stopwatch` (or a span) so the interval is \
                       visible to telemetry, or justify with \
                       `// lint:allow(no-raw-instant-in-lib): <reason>`"
                .to_string();
            flag(file, &toks[i], NO_RAW_INSTANT_IN_LIB, true, msg, out);
        }
    }
}

/// Paths where a blocking `thread::sleep` stays legal: the sanctioned
/// backoff module (the audited wrapper every lib sleep must route through),
/// plus everything already exempt from panics (tests, benches, examples,
/// binaries) and vendored stubs.
fn is_exempt_from_blocking_sleep(rel_path: &str) -> bool {
    is_exempt_from_panics(rel_path)
        || rel_path == "crates/serve/src/backoff.rs"
        || rel_path.starts_with("vendor/")
}

/// `no-blocking-sleep-in-lib`: forbids `thread::sleep(..)` in library
/// runtime paths. Sleeping on a worker thread is a deliberate act with
/// throughput consequences; it must route through `ses_serve::backoff`
/// (jittered, capped, enumerable in one audited file) rather than hide as
/// an ad-hoc stall. Tests, benches, examples, binaries, vendored stubs and
/// the backoff module itself are exempt.
pub fn no_blocking_sleep_in_lib(file: &LintFile, out: &mut Vec<Violation>) {
    if is_exempt_from_blocking_sleep(&file.rel_path) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let hit = toks[i].is_ident("thread")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("sleep"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct('('));
        if hit {
            let msg = "`thread::sleep(..)` in library runtime path: route \
                       the wait through `ses_serve::backoff` (jittered, \
                       capped, auditable), or justify with \
                       `// lint:allow(no-blocking-sleep-in-lib): <reason>`"
                .to_string();
            flag(file, &toks[i], NO_BLOCKING_SLEEP_IN_LIB, true, msg, out);
        }
    }
}

/// True when the line at `idx` (or a directly preceding comment-only run)
/// carries a `SAFETY:` comment.
fn has_safety_comment(file: &LintFile, idx: usize) -> bool {
    if file.lines[idx].comments.contains("SAFETY:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let code_empty = file.lines[i].code.trim().is_empty();
        if !code_empty {
            return false;
        }
        if file.lines[i].comments.contains("SAFETY:") {
            return true;
        }
    }
    false
}

/// `unsafe-needs-safety-comment`: every `unsafe` keyword — blocks, fns,
/// impls, **including test code** (an unsound test is still unsound) — must
/// carry a `// SAFETY: <invariant>` comment on its line or the comment run
/// directly above. Vendored stubs are exempt (third-party idiom is not ours
/// to annotate).
pub fn unsafe_needs_safety_comment(file: &LintFile, out: &mut Vec<Violation>) {
    if file.rel_path.starts_with("vendor/") {
        return;
    }
    for tok in &file.tokens {
        if tok.kind != TokKind::Ident || tok.text != "unsafe" {
            continue;
        }
        if has_safety_comment(file, tok.line) {
            continue;
        }
        flag(
            file,
            tok,
            UNSAFE_NEEDS_SAFETY_COMMENT,
            false,
            "`unsafe` without a `// SAFETY:` comment: state the invariant that \
             makes this sound on the same line or directly above"
                .to_string(),
            out,
        );
    }
}

/// Paths sanctioned to call `catch_unwind`: the resilience crate (fault
/// isolation is its job), `ses_tensor::par`'s `run_isolated` (the one
/// kernel-side isolation boundary, which resilience documents and tests),
/// the `ses-race` model checker (its scheduler must contain task panics to
/// report them as failing schedules), and vendored stubs (upstream idiom).
fn may_catch_unwind(rel_path: &str) -> bool {
    rel_path.starts_with("crates/resilience/")
        || rel_path == "crates/tensor/src/par.rs"
        || rel_path.starts_with("crates/race/")
        || rel_path.starts_with("vendor/")
}

/// `no-catch-unwind-outside-resilience`: forbids `catch_unwind` outside the
/// sanctioned fault-isolation boundaries. A stray `catch_unwind` swallows a
/// panic without the degradation counters, one-shot warnings, and
/// bit-identical serial fallback the resilience layer guarantees — recovery
/// semantics must stay in one auditable place. Test code is exempt
/// (asserting that something panics is fine).
pub fn no_catch_unwind(file: &LintFile, out: &mut Vec<Violation>) {
    if may_catch_unwind(&file.rel_path) || is_exempt_from_panics(&file.rel_path) {
        return;
    }
    for tok in &file.tokens {
        if !tok.is_ident("catch_unwind") {
            continue;
        }
        flag(
            file,
            tok,
            NO_CATCH_UNWIND_OUTSIDE_RESILIENCE,
            true,
            "`catch_unwind` outside the resilience layer: route panic isolation \
             through `ses_tensor::par::run_isolated` / `ses-resilience`, or justify \
             with `// lint:allow(no-catch-unwind-outside-resilience): <reason>`"
                .to_string(),
            out,
        );
    }
}

/// True when the line at `idx` (or a directly preceding comment-only run)
/// carries an `ordering:` justification comment.
fn has_ordering_comment(file: &LintFile, idx: usize) -> bool {
    if file.lines[idx].comments.contains("ordering:") {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        if !file.lines[i].code.trim().is_empty() {
            return false;
        }
        if file.lines[i].comments.contains("ordering:") {
            return true;
        }
    }
    false
}

/// The memory-ordering variants of `std::sync::atomic::Ordering`.
const ORDERING_VARIANTS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// `atomic-ordering-needs-comment`: every `Ordering::<variant>` use site in
/// library code must carry an `// ordering: <why this ordering suffices>`
/// comment on its line or the comment run directly above. A memory ordering
/// is a correctness claim about every other access to the same location —
/// `Relaxed` asserts no cross-thread happens-before is needed, `Acquire`/
/// `Release` name a publication edge — and the `ses-race` checker models
/// exactly these semantics, so an unjustified ordering is an unreviewable
/// one. Tests, benches and binaries are exempt (assertion code does not
/// publish data), as are vendored stubs.
pub fn atomic_ordering_needs_comment(file: &LintFile, out: &mut Vec<Violation>) {
    if is_exempt_from_panics(&file.rel_path) || file.rel_path.starts_with("vendor/") {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let hit = toks[i].is_ident("Ordering")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| {
                t.kind == TokKind::Ident && ORDERING_VARIANTS.contains(&t.text.as_str())
            });
        if !hit {
            continue;
        }
        // One justification per comment run covers every ordering on that
        // line (e.g. a compare_exchange's success/failure pair).
        if has_ordering_comment(file, toks[i].line) {
            continue;
        }
        let variant = &toks[i + 3].text;
        flag(
            file,
            &toks[i],
            ATOMIC_ORDERING_NEEDS_COMMENT,
            true,
            format!(
                "`Ordering::{variant}` without an `// ordering:` comment: state why \
                 this ordering suffices (what is or is not published) on the same \
                 line or directly above"
            ),
            out,
        );
    }
}

/// True for a numeric literal token that denotes an `f32`/`f64` value:
/// decimal point, exponent, or an explicit float suffix. Hex/octal/binary
/// literals are integers by construction (and would false-positive on the
/// `e` digit).
fn is_float_literal(tok: &Tok) -> bool {
    if tok.kind != TokKind::Number {
        return false;
    }
    let s = tok.text.as_str();
    if s.starts_with("0x") || s.starts_with("0X") || s.starts_with("0b") || s.starts_with("0o") {
        return false;
    }
    s.ends_with("f32")
        || s.ends_with("f64")
        || s.contains('.')
        || s.contains('e')
        || s.contains('E')
}

/// True when `toks[i]` and `toks[i + 1]` are physically adjacent punctuation
/// forming one two-character operator.
fn adjacent_pair(toks: &[Tok], i: usize, a: char, b: char) -> bool {
    toks[i].is_punct(a)
        && toks
            .get(i + 1)
            .is_some_and(|t| t.is_punct(b) && t.line == toks[i].line && t.col == toks[i].col + 1)
}

/// `no-float-eq`: forbids `==`/`!=` against a float literal outside tests
/// and vendored stubs. Exact float comparison is almost always a rounding
/// bug waiting to happen (`0.1 + 0.2 != 0.3`); compare `to_bits()` when bit
/// equality is genuinely meant (the determinism contract does exactly
/// that), or use an explicit tolerance. The check is token-local — it flags
/// comparisons whose left or right operand is literally a float constant —
/// so typed `f32 == f32` variable comparisons are out of scope (and out of
/// reach) for a text-level linter.
pub fn no_float_eq(file: &LintFile, out: &mut Vec<Violation>) {
    if file.rel_path.starts_with("vendor/") || is_exempt_from_panics(&file.rel_path) {
        return;
    }
    let toks = &file.tokens;
    for i in 0..toks.len() {
        let op = if adjacent_pair(toks, i, '=', '=') {
            "=="
        } else if adjacent_pair(toks, i, '!', '=') {
            "!="
        } else {
            continue;
        };
        let left_float = i > 0 && is_float_literal(&toks[i - 1]);
        // skip unary minus / grouping parens on the right-hand side
        let mut j = i + 2;
        while toks
            .get(j)
            .is_some_and(|t| t.is_punct('-') || t.is_punct('('))
        {
            j += 1;
        }
        let right_float = toks.get(j).is_some_and(is_float_literal);
        if left_float || right_float {
            let msg = format!(
                "`{op}` against a float literal: exact float equality is fragile; \
                 compare `.to_bits()` (bit identity) or an explicit tolerance, or \
                 justify with `// lint:allow(no-float-eq): <reason>`"
            );
            flag(file, &toks[i], NO_FLOAT_EQ, true, msg, out);
        }
    }
}

/// `allow-syntax`: every `lint:allow` directive must name a known rule and
/// carry a reason (`// lint:allow(<rule>): <reason>`); a bare allow is a
/// violation itself, so escapes stay auditable.
pub fn allow_syntax(file: &LintFile, out: &mut Vec<Violation>) {
    for (idx, directive) in file.directives.iter().enumerate() {
        let Some(d) = directive else { continue };
        if !d.has_reason {
            out.push(Violation {
                rule: ALLOW_SYNTAX,
                file: file.rel_path.clone(),
                line: idx + 1,
                msg: "lint:allow without a reason; write \
                      `// lint:allow(<rule>): <why this is safe>`"
                    .to_string(),
            });
        }
        for r in &d.rules {
            if !ALL_RULES.contains(&r.as_str()) {
                out.push(Violation {
                    rule: ALLOW_SYNTAX,
                    file: file.rel_path.clone(),
                    line: idx + 1,
                    msg: format!("lint:allow names unknown rule `{r}`"),
                });
            }
        }
    }
}

/// Directory holding the tape: every file under it is a tape op module, so
/// moving tape methods between its files cannot drop coverage.
pub const TAPE_DIR: &str = "crates/tensor/src/tape/";

/// `gradcheck-coverage`: every differentiable op registered on the tape (a
/// `pub fn … (&mut self, …)` in a module under [`TAPE_DIR`]) must be
/// exercised by name in the finite-difference test corpus
/// (`crates/tensor/tests/*.rs` + `crates/tensor/src/gradcheck.rs`), so a new
/// op cannot land with an unverified backward rule. Finding no tape module
/// at all is itself a violation: the rule must never silently check nothing.
pub fn gradcheck_coverage(files: &[LintFile], out: &mut Vec<Violation>) {
    let op_modules: Vec<&LintFile> = files
        .iter()
        .filter(|f| f.rel_path.starts_with(TAPE_DIR) && f.rel_path.ends_with(".rs"))
        .collect();
    if op_modules.is_empty() {
        out.push(Violation {
            rule: GRADCHECK_COVERAGE,
            file: TAPE_DIR.to_string(),
            line: 0,
            msg: format!(
                "no tape op modules found under {TAPE_DIR}: the rule would check nothing; \
                 update `TAPE_DIR` if the tape moved"
            ),
        });
        return;
    }

    let mut corpus = String::new();
    for f in files {
        if f.rel_path.starts_with("crates/tensor/tests/")
            || f.rel_path == "crates/tensor/src/gradcheck.rs"
        {
            for line in &f.lines {
                corpus.push_str(&line.code);
                corpus.push('\n');
            }
        }
    }

    for f in op_modules {
        for (idx, name) in tape_op_decls(f) {
            if corpus.contains(&format!(".{name}(")) {
                continue;
            }
            if f.is_allowed(idx, GRADCHECK_COVERAGE) {
                continue;
            }
            out.push(Violation {
                rule: GRADCHECK_COVERAGE,
                file: f.rel_path.clone(),
                line: idx + 1,
                msg: format!(
                    "differentiable op `{name}` has no finite-difference coverage: add a \
                     gradcheck property in crates/tensor/tests/ or justify with \
                     `// lint:allow(gradcheck-coverage): <reason>`"
                ),
            });
        }
    }
}

/// Extracts `(line_index, fn_name)` for every `pub fn name(&mut self, …)`
/// declared outside test regions of a tape op module. Signatures may wrap
/// across lines; the receiver is searched within the declaration window.
fn tape_op_decls(file: &LintFile) -> Vec<(usize, String)> {
    let mut decls = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test_region {
            continue;
        }
        let Some(pos) = line.code.find("pub fn ") else {
            continue;
        };
        let rest = &line.code[pos + "pub fn ".len()..];
        let name: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        if name.is_empty() {
            continue;
        }
        // join the declaration window (until the body opens) to find the receiver
        let mut window = String::new();
        for l in &file.lines[idx..file.lines.len().min(idx + 6)] {
            window.push_str(&l.code);
            if l.code.contains('{') {
                break;
            }
        }
        if window.contains("&mut self") {
            decls.push((idx, name));
        }
    }
    decls
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintFile;

    fn file(path: &str, src: &str) -> LintFile {
        LintFile::from_source(path.to_string(), src)
    }

    fn run_single(f: &LintFile, rule: fn(&LintFile, &mut Vec<Violation>)) -> Vec<Violation> {
        let mut out = Vec::new();
        rule(f, &mut out);
        out
    }

    #[test]
    fn no_unwrap_flags_runtime_paths_only() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"boom\"); }\n\
                   #[cfg(test)]\nmod tests {\n    fn g() { z.unwrap(); }\n}";
        let v = run_single(&file("crates/foo/src/lib.rs", src), no_unwrap);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|x| x.line == 1));
        // same source in a test file: clean
        let v = run_single(&file("crates/foo/tests/it.rs", src), no_unwrap);
        assert!(v.is_empty());
        // …or a binary
        let v = run_single(&file("crates/foo/src/bin/main.rs", src), no_unwrap);
        assert!(v.is_empty());
    }

    #[test]
    fn no_unwrap_catches_calls_split_across_lines() {
        // The line-regex version missed `.unwrap\n()`; the token scanner
        // must not.
        let src = "fn f() {\n    x\n        .unwrap\n        ();\n}";
        let v = run_single(&file("crates/foo/src/lib.rs", src), no_unwrap);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3, "reported at the `unwrap` token");
    }

    #[test]
    fn no_unwrap_respects_allow_with_reason() {
        let src =
            "fn f() {\n    // lint:allow(no-unwrap): length checked above\n    x.unwrap();\n}";
        let v = run_single(&file("crates/foo/src/lib.rs", src), no_unwrap);
        assert!(v.is_empty(), "{v:?}");
        // same-line form
        let src2 = "fn f() { x.unwrap(); } // lint:allow(no-unwrap): infallible by construction";
        let v2 = run_single(&file("crates/foo/src/lib.rs", src2), no_unwrap);
        assert!(v2.is_empty(), "{v2:?}");
    }

    #[test]
    fn unwrap_or_variants_do_not_trip() {
        let src = "fn f() { x.unwrap_or(0); y.unwrap_or_else(|| 1); z.unwrap_or_default(); }";
        let v = run_single(&file("crates/foo/src/lib.rs", src), no_unwrap);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn strings_and_comments_do_not_trip_no_unwrap() {
        let src = "fn f() { let s = \"call .unwrap() here\"; } // .unwrap() is bad\n/// panic!(never)\nfn g() {}";
        let v = run_single(&file("crates/foo/src/lib.rs", src), no_unwrap);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn raw_instant_flagged_in_lib_paths_only() {
        let src = "fn f() { let t = Instant::now(); }";
        let v = run_single(&file("crates/foo/src/lib.rs", src), no_raw_instant_in_lib);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, NO_RAW_INSTANT_IN_LIB);
        // fully-qualified form matches too (same trailing token sequence)
        let fq = "fn f() { let t = std::time::Instant::now(); }";
        let v = run_single(&file("crates/foo/src/lib.rs", fq), no_raw_instant_in_lib);
        assert_eq!(v.len(), 1, "{v:?}");
        // exempt locations: tests, benches, binaries, the obs crate, vendor
        for path in [
            "crates/foo/tests/it.rs",
            "crates/foo/benches/b.rs",
            "crates/foo/src/bin/main.rs",
            "crates/obs/src/time.rs",
            "vendor/rand/src/lib.rs",
        ] {
            let v = run_single(&file(path, src), no_raw_instant_in_lib);
            assert!(v.is_empty(), "{path} should be exempt: {v:?}");
        }
        // test regions inside lib files are exempt
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { let t = Instant::now(); }\n}";
        let v = run_single(
            &file("crates/foo/src/lib.rs", in_test),
            no_raw_instant_in_lib,
        );
        assert!(v.is_empty(), "{v:?}");
        // a reasoned allow silences it
        let allowed = "fn f() {\n    // lint:allow(no-raw-instant-in-lib): pre-obs crate\n    let t = Instant::now();\n}";
        let v = run_single(
            &file("crates/foo/src/lib.rs", allowed),
            no_raw_instant_in_lib,
        );
        assert!(v.is_empty(), "{v:?}");
        // `elapsed()` on a stored Instant or other idents must not trip
        let ok = "fn f() { let d = sw.elapsed(); my_instant.now(); }";
        let v = run_single(&file("crates/foo/src/lib.rs", ok), no_raw_instant_in_lib);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn blocking_sleep_flagged_in_lib_paths_only() {
        let src = "fn f() { thread::sleep(Duration::from_millis(1)); }";
        let v = run_single(
            &file("crates/foo/src/lib.rs", src),
            no_blocking_sleep_in_lib,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, NO_BLOCKING_SLEEP_IN_LIB);
        // fully-qualified form matches too (same trailing token sequence)
        let fq = "fn f() { std::thread::sleep(Duration::from_millis(1)); }";
        let v = run_single(&file("crates/foo/src/lib.rs", fq), no_blocking_sleep_in_lib);
        assert_eq!(v.len(), 1, "{v:?}");
        // exempt locations: tests, benches, binaries, the backoff module, vendor
        for path in [
            "crates/foo/tests/it.rs",
            "crates/foo/benches/b.rs",
            "crates/foo/src/bin/main.rs",
            "crates/serve/src/backoff.rs",
            "vendor/rand/src/lib.rs",
        ] {
            let v = run_single(&file(path, src), no_blocking_sleep_in_lib);
            assert!(v.is_empty(), "{path} should be exempt: {v:?}");
        }
        // test regions inside lib files are exempt
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { thread::sleep(Duration::ZERO); }\n}";
        let v = run_single(
            &file("crates/foo/src/lib.rs", in_test),
            no_blocking_sleep_in_lib,
        );
        assert!(v.is_empty(), "{v:?}");
        // a reasoned allow silences it
        let allowed = "fn f() {\n    // lint:allow(no-blocking-sleep-in-lib): startup settle\n    thread::sleep(Duration::ZERO);\n}";
        let v = run_single(
            &file("crates/foo/src/lib.rs", allowed),
            no_blocking_sleep_in_lib,
        );
        assert!(v.is_empty(), "{v:?}");
        // other `sleep` idents must not trip (e.g. a method named sleep)
        let ok = "fn f() { backoff.sleep(2); scheduler::sleep_queue(); }";
        let v = run_single(&file("crates/foo/src/lib.rs", ok), no_blocking_sleep_in_lib);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn thread_rng_flagged_even_in_tests() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { let mut r = rand::thread_rng(); }\n}";
        let v = run_single(&file("crates/foo/src/lib.rs", src), no_thread_rng);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, NO_THREAD_RNG);
    }

    #[test]
    fn rand_random_matches_even_with_spacing() {
        let src = "fn f() { let x: u8 = rand :: random(); }";
        let v = run_single(&file("crates/foo/src/lib.rs", src), no_thread_rng);
        assert_eq!(v.len(), 1, "{v:?}");
        // but an unrelated `random` ident is fine
        let v = run_single(
            &file("crates/foo/src/lib.rs", "fn f() { my::random(); }"),
            no_thread_rng,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn f64_flagged_only_in_tensor_kernels() {
        let src = "fn k(x: f32) -> f32 { (x as f64) as f32 }";
        let v = run_single(&file("crates/tensor/src/matrix.rs", src), no_f64_in_kernels);
        assert_eq!(v.len(), 1);
        let v = run_single(&file("crates/graph/src/lib.rs", src), no_f64_in_kernels);
        assert!(v.is_empty());
        // identifier containing f64 as substring must not trip
        let src2 = "fn k() { let bf64x = 1.0f32; }";
        let v2 = run_single(
            &file("crates/tensor/src/matrix.rs", src2),
            no_f64_in_kernels,
        );
        assert!(v2.is_empty(), "{v2:?}");
        // but an f64-suffixed literal does
        let src3 = "fn k() { let w = 1.0f64; }";
        let v3 = run_single(
            &file("crates/tensor/src/matrix.rs", src3),
            no_f64_in_kernels,
        );
        assert_eq!(v3.len(), 1, "{v3:?}");
    }

    #[test]
    fn gradcheck_shadow_module_is_exempt_from_f64_rule() {
        let src = "pub fn q(h: f32) -> f64 { f64::from(h) * 2.0f64 }";
        let v = run_single(
            &file("crates/tensor/src/gradcheck.rs", src),
            no_f64_in_kernels,
        );
        assert!(v.is_empty(), "{v:?}");
        // the exemption is that one path, not a prefix wildcard
        let v = run_single(
            &file("crates/tensor/src/gradcheck_extra.rs", src),
            no_f64_in_kernels,
        );
        assert!(!v.is_empty());
    }

    #[test]
    fn narrowing_cast_flagged_only_in_kernel_hot_paths() {
        let src = "fn k(n: usize) -> f32 { n as f32 }\nfn m(x: f32) -> usize { x as usize }";
        for path in [
            "crates/tensor/src/matrix.rs",
            "crates/tensor/src/sparse.rs",
            "crates/tensor/src/par.rs",
            "crates/tensor/src/kernels/dense.rs",
        ] {
            let v = run_single(&file(path, src), no_narrowing_cast);
            assert_eq!(v.len(), 2, "{path}: {v:?}");
        }
        // outside the hot paths the same source is clean
        let v = run_single(&file("crates/tensor/src/init.rs", src), no_narrowing_cast);
        assert!(v.is_empty());
        let v = run_single(&file("crates/graph/src/norm.rs", src), no_narrowing_cast);
        assert!(v.is_empty());
    }

    #[test]
    fn narrowing_cast_respects_tests_and_allow() {
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f(n: usize) -> f32 { n as f32 }\n}";
        let v = run_single(
            &file("crates/tensor/src/matrix.rs", in_test),
            no_narrowing_cast,
        );
        assert!(v.is_empty(), "{v:?}");
        let allowed = "fn f(n: usize) -> f32 {\n    \
                       // lint:allow(no-narrowing-cast): counts stay far below 2^24\n    \
                       n as f32\n}";
        let v = run_single(
            &file("crates/tensor/src/matrix.rs", allowed),
            no_narrowing_cast,
        );
        assert!(v.is_empty(), "{v:?}");
        // identifiers containing the words must not trip
        let bare = "fn f() { let aliased_as_f32_name = 1.0f32; }";
        let v = run_single(&file("crates/tensor/src/par.rs", bare), no_narrowing_cast);
        assert!(v.is_empty(), "{v:?}");
        // a widening cast is not a narrowing cast
        let widen = "fn f(n: usize) -> u128 { n as u128 }";
        let v = run_single(&file("crates/tensor/src/par.rs", widen), no_narrowing_cast);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn println_flagged_in_lib_paths_only() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); dbg!(z); }";
        let v = run_single(&file("crates/foo/src/lib.rs", src), no_println_in_lib);
        assert_eq!(v.len(), 1, "one violation per line: {v:?}");
        assert_eq!(v[0].rule, NO_PRINTLN_IN_LIB);
        // binaries, examples, tests, vendored stubs: all clean
        for path in [
            "crates/foo/src/bin/tool.rs",
            "crates/lint/src/main.rs",
            "crates/foo/examples/demo.rs",
            "crates/foo/tests/it.rs",
            "crates/foo/benches/b.rs",
            "vendor/rand/src/lib.rs",
        ] {
            let v = run_single(&file(path, src), no_println_in_lib);
            assert!(v.is_empty(), "{path}: {v:?}");
        }
    }

    #[test]
    fn println_rule_respects_tests_allow_and_words() {
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { println!(\"dbg\"); }\n}";
        let v = run_single(&file("crates/foo/src/lib.rs", in_test), no_println_in_lib);
        assert!(v.is_empty(), "{v:?}");
        let allowed = "fn f() {\n    // lint:allow(no-println-in-lib): startup banner\n    \
                       println!(\"hello\");\n}";
        let v = run_single(&file("crates/foo/src/lib.rs", allowed), no_println_in_lib);
        assert!(v.is_empty(), "{v:?}");
        // macro wrappers that merely end in the same letters must not trip,
        // and our own sanctioned macros stay clean
        let ok = "fn f() { ses_obs::info!(\"x\"); my_println!(\"y\"); writeln!(w, \"z\"); }";
        let v = run_single(&file("crates/foo/src/lib.rs", ok), no_println_in_lib);
        assert!(v.is_empty(), "{v:?}");
        // `print` as a variable compared with != is not a macro call
        let neq = "fn f(print: u32) -> bool { print != 0 }";
        let v = run_single(&file("crates/foo/src/lib.rs", neq), no_println_in_lib);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unsafe_requires_safety_comment() {
        let bare = "fn f() { unsafe { do_it() } }";
        let v = run_single(
            &file("crates/foo/src/lib.rs", bare),
            unsafe_needs_safety_comment,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, UNSAFE_NEEDS_SAFETY_COMMENT);

        let same_line = "fn f() { unsafe { do_it() } } // SAFETY: ptr is valid for 'scope";
        let v = run_single(
            &file("crates/foo/src/lib.rs", same_line),
            unsafe_needs_safety_comment,
        );
        assert!(v.is_empty(), "{v:?}");

        let above = "fn f() {\n    // SAFETY: slice bounds checked by split_at\n    \
                     unsafe { do_it() }\n}";
        let v = run_single(
            &file("crates/foo/src/lib.rs", above),
            unsafe_needs_safety_comment,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn unsafe_rule_covers_tests_but_not_vendor() {
        let in_test = "#[cfg(test)]\nmod tests {\n    fn f() { unsafe { do_it() } }\n}";
        let v = run_single(
            &file("crates/foo/src/lib.rs", in_test),
            unsafe_needs_safety_comment,
        );
        assert_eq!(v.len(), 1, "test code is NOT exempt: {v:?}");

        let v = run_single(
            &file("vendor/rand/src/lib.rs", "fn f() { unsafe { do_it() } }"),
            unsafe_needs_safety_comment,
        );
        assert!(v.is_empty(), "vendored stubs are exempt: {v:?}");

        // the word inside a string or comment is not the keyword
        let quoted = "fn f() { let s = \"unsafe\"; } // unsafe mentioned in prose";
        let v = run_single(
            &file("crates/foo/src/lib.rs", quoted),
            unsafe_needs_safety_comment,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn catch_unwind_flagged_outside_sanctioned_paths() {
        let src = "fn f() { let r = std::panic::catch_unwind(|| work()); }";
        let v = run_single(&file("crates/gnn/src/trainer.rs", src), no_catch_unwind);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, NO_CATCH_UNWIND_OUTSIDE_RESILIENCE);
        // sanctioned homes: resilience, the par isolation layer, vendor
        for path in [
            "crates/resilience/src/recovery.rs",
            "crates/tensor/src/par.rs",
            "vendor/proptest/src/lib.rs",
        ] {
            let v = run_single(&file(path, src), no_catch_unwind);
            assert!(v.is_empty(), "{path}: {v:?}");
        }
        // the par exemption is that one file, not the whole tensor crate
        let v = run_single(
            &file("crates/tensor/src/kernels/dense.rs", src),
            no_catch_unwind,
        );
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn catch_unwind_rule_respects_tests_allow_and_words() {
        let in_test =
            "#[cfg(test)]\nmod tests {\n    fn f() { std::panic::catch_unwind(|| x()); }\n}";
        let v = run_single(&file("crates/gnn/src/lib.rs", in_test), no_catch_unwind);
        assert!(v.is_empty(), "{v:?}");
        let in_test_file = "fn f() { std::panic::catch_unwind(|| x()); }";
        let v = run_single(
            &file("crates/gnn/tests/it.rs", in_test_file),
            no_catch_unwind,
        );
        assert!(v.is_empty(), "{v:?}");
        let allowed = "fn f() {\n    \
            // lint:allow(no-catch-unwind-outside-resilience): FFI boundary must not unwind\n    \
            std::panic::catch_unwind(|| x());\n}";
        let v = run_single(&file("crates/gnn/src/lib.rs", allowed), no_catch_unwind);
        assert!(v.is_empty(), "{v:?}");
        // prose/strings and longer identifiers must not trip
        let words = "fn f() { let s = \"catch_unwind\"; my_catch_unwind_helper(); } // catch_unwind in prose";
        let v = run_single(&file("crates/gnn/src/lib.rs", words), no_catch_unwind);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn float_eq_flags_literal_comparisons_both_sides() {
        let src = "fn f(x: f32) -> bool { x == 0.0 }\n\
                   fn g(x: f32) -> bool { 1.5f32 != x }\n\
                   fn h(x: f64) -> bool { x != -2.0e-3 }";
        let v = run_single(&file("crates/foo/src/lib.rs", src), no_float_eq);
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|x| x.rule == NO_FLOAT_EQ));
    }

    #[test]
    fn float_eq_ignores_ints_bits_and_non_equality_ops() {
        let src = "fn f(x: u32) -> bool { x == 0 }\n\
                   fn g(x: f32) -> bool { x.to_bits() == 0x3f80_0000 }\n\
                   fn h(x: f32) -> bool { x <= 0.5 && x >= -0.5 && x < 1.0 }\n\
                   fn i(n: usize) -> bool { n != 0b101 }";
        let v = run_single(&file("crates/foo/src/lib.rs", src), no_float_eq);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn float_eq_exempts_tests_vendor_and_reasoned_allows() {
        let cmp = "fn f(x: f32) -> bool { x == 0.25 }";
        let in_test = format!("#[cfg(test)]\nmod tests {{\n    {cmp}\n}}");
        let v = run_single(&file("crates/foo/src/lib.rs", &in_test), no_float_eq);
        assert!(v.is_empty(), "{v:?}");
        let v = run_single(&file("crates/foo/tests/it.rs", cmp), no_float_eq);
        assert!(v.is_empty(), "test files are exempt: {v:?}");
        let v = run_single(&file("vendor/rand/src/lib.rs", cmp), no_float_eq);
        assert!(v.is_empty(), "vendor is exempt: {v:?}");
        let allowed = "fn f(x: f32) -> bool {\n    \
                       // lint:allow(no-float-eq): sentinel written verbatim upstream\n    \
                       x == 0.25\n}";
        let v = run_single(&file("crates/foo/src/lib.rs", allowed), no_float_eq);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn allow_without_reason_is_a_violation() {
        let src = "fn f() {\n    // lint:allow(no-unwrap)\n    x.unwrap();\n}";
        let f = file("crates/foo/src/lib.rs", src);
        let v = run_single(&f, allow_syntax);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, ALLOW_SYNTAX);
        // and the reasonless allow still suppresses nothing
        let v = run_single(&f, no_unwrap);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn allow_unknown_rule_is_a_violation() {
        let src = "// lint:allow(no-such-rule): whatever\nfn f() {}";
        let v = run_single(&file("crates/foo/src/lib.rs", src), allow_syntax);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn gradcheck_coverage_names_uncovered_ops() {
        let op_file = file(
            "crates/tensor/src/tape/elementwise.rs",
            "impl Tape {\n    pub fn covered_op(&mut self, a: Var) -> Var { a }\n    \
             pub fn uncovered_op(&mut self, a: Var) -> Var { a }\n    \
             pub fn helper(a: Var) -> Var { a }\n}",
        );
        let test_file = file(
            "crates/tensor/tests/gradcheck_props.rs",
            "fn t() { let x = t.covered_op(v); }",
        );
        let mut out = Vec::new();
        gradcheck_coverage(&[op_file, test_file], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("uncovered_op"));
    }

    #[test]
    fn gradcheck_coverage_respects_allow() {
        let op_file = file(
            "crates/tensor/src/tape/reduce.rs",
            "impl Tape {\n    // lint:allow(gradcheck-coverage): composed of checked ops\n    \
             pub fn composed(&mut self, a: Var) -> Var { a }\n}",
        );
        let mut out = Vec::new();
        gradcheck_coverage(&[op_file], &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn gradcheck_coverage_fails_when_the_tape_is_missing() {
        // The op modules moved away (or were renamed): checking nothing must
        // be a violation, not a silent pass.
        let moved = file(
            "crates/tensor/src/ops/elementwise.rs",
            "impl Tape {\n    pub fn uncovered_op(&mut self, a: Var) -> Var { a }\n}",
        );
        let mut out = Vec::new();
        gradcheck_coverage(&[moved], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("no tape op modules"), "{out:?}");
    }

    #[test]
    fn gradcheck_coverage_covers_every_tape_module() {
        let op_file = file(
            "crates/tensor/src/tape/new_module.rs",
            "impl Tape {\n    pub fn fresh_op(&mut self, a: Var) -> Var { a }\n}",
        );
        let nested = file(
            "crates/tensor/src/tape/sub/inner.rs",
            "impl Tape {\n    pub fn nested_op(&mut self, a: Var) -> Var { a }\n}",
        );
        let mut out = Vec::new();
        gradcheck_coverage(&[op_file, nested], &mut out);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out[0].msg.contains("fresh_op"));
        assert!(out[1].msg.contains("nested_op"));
    }

    #[test]
    fn gradcheck_coverage_handles_multiline_signatures() {
        let op_file = file(
            "crates/tensor/src/tape/loss.rs",
            "impl Tape {\n    pub fn wrapped(\n        &mut self,\n        a: Var,\n    ) -> Var { a }\n}",
        );
        let mut out = Vec::new();
        gradcheck_coverage(&[op_file], &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].msg.contains("wrapped"));
    }

    #[test]
    fn vec_alloc_in_kernel_loop_flags_loop_bodies_only() {
        let src = "pub fn k(n: usize) -> Vec<f32> {\n\
                   \x20   let mut out = vec![0.0f32; n];\n\
                   \x20   let hoisted = Vec::<f32>::with_capacity(n);\n\
                   \x20   for r in 0..n {\n\
                   \x20       let tmp = vec![0.0f32; 8];\n\
                   \x20       let mut acc: Vec<f32> = Vec::new();\n\
                   \x20       while acc.len() < 4 {\n\
                   \x20           acc = Vec::with_capacity(8);\n\
                   \x20       }\n\
                   \x20   }\n\
                   \x20   out\n\
                   }";
        let f = file("crates/tensor/src/kernels/dense.rs", src);
        let v = run_single(&f, no_vec_alloc_in_kernel_loop);
        assert_eq!(v.len(), 3, "{v:?}");
        assert_eq!(
            v.iter().map(|x| x.line).collect::<Vec<_>>(),
            vec![5, 6, 8],
            "pre-loop allocations at lines 2-3 stay clean: {v:?}"
        );
        // same source outside the kernel hot paths: clean
        let v = run_single(
            &file("crates/gnn/src/layers.rs", src),
            no_vec_alloc_in_kernel_loop,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn vec_alloc_rule_ignores_impl_for_and_respects_allow() {
        // `impl Drop for Pool` is not a loop; the `for` there must not turn
        // the impl body into a "loop body".
        let src = "impl Drop for Pool {\n\
                   \x20   fn drop(&mut self) {\n\
                   \x20       let b: Vec<u8> = Vec::new();\n\
                   \x20   }\n\
                   }";
        let f = file("crates/tensor/src/kernels/lane.rs", src);
        let v = run_single(&f, no_vec_alloc_in_kernel_loop);
        assert!(v.is_empty(), "{v:?}");

        let src2 = "pub fn k() {\n\
                    \x20   loop {\n\
                    \x20       // lint:allow(no-vec-alloc-in-kernel-loop): grows once, reused\n\
                    \x20       let b: Vec<u8> = Vec::new();\n\
                    \x20       break;\n\
                    \x20   }\n\
                    }";
        let f2 = file("crates/tensor/src/kernels/lane.rs", src2);
        let v2 = run_single(&f2, no_vec_alloc_in_kernel_loop);
        assert!(v2.is_empty(), "{v2:?}");
    }

    #[test]
    fn vec_alloc_rule_skips_test_regions_in_kernel_files() {
        let src = "pub fn k() {}\n\
                   #[cfg(test)]\nmod tests {\n\
                   \x20   fn t() { for i in 0..3 { let v = vec![i]; } }\n\
                   }";
        let f = file("crates/tensor/src/kernels/sparse.rs", src);
        let v = run_single(&f, no_vec_alloc_in_kernel_loop);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ordering_requires_justification_comment() {
        let bare = "fn f(a: &AtomicU64) { a.store(1, Ordering::Relaxed); }";
        let v = run_single(
            &file("crates/foo/src/lib.rs", bare),
            atomic_ordering_needs_comment,
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, ATOMIC_ORDERING_NEEDS_COMMENT);
        assert!(v[0].msg.contains("Ordering::Relaxed"), "{v:?}");

        let same_line =
            "fn f(a: &AtomicU64) { a.store(1, Ordering::Release); } // ordering: publishes init";
        let v = run_single(
            &file("crates/foo/src/lib.rs", same_line),
            atomic_ordering_needs_comment,
        );
        assert!(v.is_empty(), "{v:?}");

        let above = "fn f(a: &AtomicU64) {\n\
                     \x20   // ordering: counter only, no data published\n\
                     \x20   a.fetch_add(1, Ordering::Relaxed);\n\
                     }";
        let v = run_single(
            &file("crates/foo/src/lib.rs", above),
            atomic_ordering_needs_comment,
        );
        assert!(v.is_empty(), "{v:?}");

        // one comment run covers a success/failure pair on the same line
        let pair = "fn f(a: &AtomicU64) {\n\
                    \x20   // ordering: CAS publishes the slot; failure is a retry\n\
                    \x20   let _ = a.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);\n\
                    }";
        let v = run_single(
            &file("crates/foo/src/lib.rs", pair),
            atomic_ordering_needs_comment,
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ordering_rule_exempts_tests_bins_and_vendor() {
        let src = "fn f(a: &AtomicU64) { a.load(Ordering::SeqCst); }";
        for path in [
            "crates/foo/tests/props.rs",
            "crates/foo/benches/hot.rs",
            "crates/foo/src/bin/tool.rs",
            "vendor/rand/src/lib.rs",
        ] {
            let v = run_single(&file(path, src), atomic_ordering_needs_comment);
            assert!(v.is_empty(), "{path} must be exempt: {v:?}");
        }

        let in_test = "#[cfg(test)]\nmod tests {\n\
                       \x20   fn t(a: &AtomicU64) { a.load(Ordering::Acquire); }\n\
                       }";
        let v = run_single(
            &file("crates/foo/src/lib.rs", in_test),
            atomic_ordering_needs_comment,
        );
        assert!(v.is_empty(), "inline test regions are exempt: {v:?}");

        // `Ordering` from `std::cmp` compared as an enum is not an atomic
        // ordering use site
        let cmp = "fn f(o: Ordering) -> bool { o == Ordering::Less }";
        let v = run_single(
            &file("crates/foo/src/lib.rs", cmp),
            atomic_ordering_needs_comment,
        );
        assert!(v.is_empty(), "{v:?}");
    }
}
