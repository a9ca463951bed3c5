//! One kernel definition, two instantiations: the crate's element-wise
//! loops compiled once for the build's baseline and once with AVX2.
//!
//! x86-64's baseline is SSE2: two `f64` lanes, and no instruction for
//! `floor` or `round`. Nearly every CPU the crate runs on has AVX2's
//! four. Building the whole workspace with `-C target-cpu=native` would
//! reach them, but it makes a binary that faults on an older CPU and a
//! build setting every user has to know about. `wide!` instead compiles a
//! kernel's body a second time under `#[target_feature(enable = "avx2")]`
//! and picks that copy at run time when the CPU reports the feature. On
//! any other architecture the macro is the body and nothing else.
//!
//! # What it promises
//!
//! **The same bits.** Both copies are the same source. The operations a
//! kernel may use — `+ − × ÷ sqrt floor round`, comparisons, selects,
//! conversions — are rounded by IEEE 754, lane by lane, exactly as their
//! scalar forms, so how many lanes run at once cannot be seen in a result.
//! The one thing that could is *contraction*: a fused multiply-add rounds
//! once where `a * b + c` rounds twice. Rust does not let LLVM contract,
//! and no fused instruction can be emitted at all while the `fma` feature
//! is off, so the macro enables `avx2` **only** — never `fma` — and no
//! kernel calls `mul_add` or a `std::arch` intrinsic. A third (AVX-512)
//! copy was measured and not kept: a gaussian draw read 5.8 ns against
//! 7.2, a whole `generate` no faster (PERFORMANCE.md, PR 20).
//!
//! **Every callee inlined.** `#[target_feature]` applies to one function's
//! code, not to what it calls. The body is `#[inline(always)]` so that it
//! is compiled *inside* the AVX2 wrapper, and every helper a body calls
//! (`box_muller`, `ln_k`, `cos_k`, the sweep's rows, `dct::forward`) is
//! `#[inline(always)]` for the same reason. That attribute is
//! load-bearing and nothing fails without it: a helper left out of line
//! is compiled for the baseline, runs two lanes wide inside a "wide"
//! kernel, and returns the same bits. Only a timing shows it — a gaussian
//! draw through [`Rng::fill_gaussian`](crate::rng::Rng::fill_gaussian)
//! costs ~7 ns four lanes wide and ~11 ns two lanes wide.
//!
//! # The one `unsafe`
//!
//! Calling a `#[target_feature]` function from code compiled without the
//! feature is `unsafe`: on a CPU that lacks it the callee executes an
//! illegal instruction. The macro makes that call only under
//! `is_x86_feature_detected!("avx2")`, which is the whole obligation. It
//! is the only `unsafe` in the crate.
//!
//! # Testing both copies
//!
//! A kernel's unit test runs it through `both`, which evaluates a
//! closure twice — once as dispatched, once with this thread held to the
//! baseline body (`baseline`) — and hands both results back to compare
//! by `to_bits` or byte for byte. `ci.sh` runs those tests in debug and in
//! release: two codegens of two instantiations.

/// Define `fn $name(args…)` once and compile it twice; see the module
/// doc. The body may not return a value: a kernel writes through its
/// `&mut` arguments.
macro_rules! wide {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                fn wide($($arg: $ty),*) {
                    body($($arg),*)
                }
                if $crate::lanes::avx2() {
                    // SAFETY: `wide` needs AVX2 and nothing else, and
                    // `lanes::avx2` is true only when the running CPU
                    // reports it.
                    return unsafe { wide($($arg),*) };
                }
            }
            body($($arg),*)
        }
    };
}
pub(crate) use wide;

/// Whether a `wide!` kernel called now takes its AVX2 copy: the CPU has
/// the feature (std caches the `cpuid` answer; this is a load and a
/// test) and, in unit tests, this thread is not inside [`baseline`].
#[cfg(target_arch = "x86_64")]
#[inline]
pub(crate) fn avx2() -> bool {
    #[cfg(test)]
    if BASELINE_ONLY.get() {
        return false;
    }
    std::is_x86_feature_detected!("avx2")
}

#[cfg(test)]
thread_local! {
    static BASELINE_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Run `f` with every `wide!` kernel on this thread taking its baseline
/// body.
#[cfg(test)]
pub(crate) fn baseline<R>(f: impl FnOnce() -> R) -> R {
    let was = BASELINE_ONLY.replace(true);
    let out = f();
    BASELINE_ONLY.set(was);
    out
}

/// Whether a `wide!` kernel called now, on this thread, takes a second
/// copy at all.
#[cfg(test)]
fn takes_wide_copy() -> bool {
    #[cfg(target_arch = "x86_64")]
    let wide = avx2();
    #[cfg(not(target_arch = "x86_64"))]
    let wide = false;
    wide
}

/// `(f() as dispatched, f() held to the baseline)`, for a test to compare
/// bit for bit. On a CPU without AVX2 the two are the same instantiation;
/// the test still passes, and says on stderr that it compared nothing.
#[cfg(test)]
pub(crate) fn both<R>(mut f: impl FnMut() -> R) -> (R, R) {
    if !takes_wide_copy() {
        eprintln!("lanes: no AVX2 here, so the baseline was compared with itself");
    }
    (f(), baseline(f))
}

#[cfg(test)]
mod tests {
    use super::*;

    wide! {
        /// `out[i] = floor(x[i] / 3) + sqrt(x[i]) · 0.1`.
        fn probe(out: &mut [f64], x: &[f64]) {
            for (o, &x) in out.iter_mut().zip(x) {
                *o = (x / 3.0).floor() + x.sqrt() * 0.1;
            }
        }
    }

    #[test]
    fn both_instantiations_agree() {
        let x: Vec<f64> = (0..37).map(|i| f64::from(i) * 1.7).collect();
        let (wide, base) = both(|| {
            let mut out = vec![0.0; x.len()];
            probe(&mut out, &x);
            out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        });
        assert_eq!(wide, base);
        assert_eq!(
            f64::from_bits(wide[36]),
            20.0 + (36.0f64 * 1.7).sqrt() * 0.1
        );
    }

    #[test]
    fn baseline_nests_and_restores() {
        let outside = takes_wide_copy();
        baseline(|| {
            baseline(|| ());
            assert!(!takes_wide_copy(), "the inner scope released the outer");
        });
        assert_eq!(takes_wide_copy(), outside);
    }

    /// Not a check: `ci.sh` runs this with `--nocapture` so that a green
    /// run says which copy its goldens exercised.
    #[test]
    fn host_reports_which_copy_runs() {
        let copy = if takes_wide_copy() {
            "AVX2"
        } else {
            "baseline"
        };
        eprintln!("lanes: wide! kernels run their {copy} copy on this host");
    }
}
