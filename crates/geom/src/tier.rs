//! CPU instruction tiers and the one way to run a pass on them.
//!
//! ## Instruction tiers
//!
//! The column passes of the system — the scan kernel
//! ([`crate::scan`]), the checksum of every log and checkpoint frame
//! (`acx_storage::crc`), the reorganization's benefit column and a
//! restart's member counts and signature checks (`acx_core`) — each run
//! one body on two [`Tier`]s: `Portable`, compiled for the target's
//! baseline and run on every CPU, and `Avx2`, the same body (or a body of
//! its own, such as the kernel's explicit compare→mask words or the CRC's
//! carry-less fold) compiled with AVX2, POPCNT, PCLMULQDQ and SSE4.1
//! enabled. [`Tier::best`] detects the features once per process, and
//! [`Tier::all`] lists every tier the CPU runs, portable first. Every
//! tier of a pass computes the same bits, so no result, byte written or
//! decision depends on the machine; each pass's tier test holds every
//! tier to a scalar reference and prints `tiers exercised: [...]`.
//! [`tiered!`](crate::tiered) writes a pass once and emits its copies and
//! its dispatch; it holds the only `unsafe` call to a feature copy.

use std::fmt;
use std::sync::OnceLock;

/// An instruction tier this CPU runs. A `Tier` only comes from
/// detection ([`Tier::best`], [`Tier::all`]), so holding one is proof
/// that the CPU supports it: a function [`tiered!`](crate::tiered)
/// emits is safe to call on any `Tier`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Tier(Level);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Portable,
    Avx2,
}

impl Tier {
    /// The best tier this CPU runs, detected once per process.
    #[inline]
    pub fn best() -> Tier {
        static BEST: OnceLock<Tier> = OnceLock::new();
        *BEST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("popcnt")
                && std::arch::is_x86_feature_detected!("pclmulqdq")
                && std::arch::is_x86_feature_detected!("sse4.1")
            {
                return Tier(Level::Avx2);
            }
            Tier(Level::Portable)
        })
    }

    /// Every tier this CPU runs, portable first.
    pub fn all() -> &'static [Tier] {
        const ALL: [Tier; 2] = [Tier(Level::Portable), Tier(Level::Avx2)];
        if Tier::best() == ALL[1] {
            &ALL
        } else {
            &ALL[..1]
        }
    }

    /// Whether this is the AVX2 tier: what [`tiered!`](crate::tiered)'s
    /// dispatch branches on.
    #[doc(hidden)]
    #[inline]
    pub fn is_avx2(self) -> bool {
        self.0 == Level::Avx2
    }
}

impl fmt::Debug for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// Writes a column pass once and runs it on any [`Tier`].
///
/// `tiered! { fn name(arg: Type, …) -> Ret { body } }` emits a safe
/// `fn name(tier: Tier, arg: Type, …) -> Ret` and, inside it, two
/// copies of `body`: an `#[inline(always)]` portable one, and one
/// compiled with the `Avx2` tier's features (on x86-64). A block after
/// `avx2` replaces the AVX2 copy's body. Arguments are plain names;
/// generic parameters are written as `impl Trait`, since the copies
/// are nested functions. Attributes and docs go on the dispatch.
///
/// ```
/// use acx_geom::tier::Tier;
///
/// acx_geom::tiered! {
///     /// Sum of the squares of `xs`.
///     fn sum_squares(xs: &[f32]) -> f32 {
///         xs.iter().map(|x| x * x).sum()
///     }
/// }
///
/// for &tier in Tier::all() {
///     assert_eq!(sum_squares(tier, &[1.0, 2.0]), 5.0);
/// }
/// ```
#[macro_export]
macro_rules! tiered {
    (@avx2 $portable:expr) => { $portable };
    (@avx2 $portable:expr, $avx2:block) => { $avx2 };
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
        $(avx2 $avx2:block)?
    ) => {
        $(#[$attr])*
        $vis fn $name(tier: $crate::tier::Tier, $($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn portable($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,popcnt,pclmulqdq,sse4.1")]
            fn avx2($($arg: $ty),*) $(-> $ret)? {
                $crate::tiered!(@avx2 portable($($arg),*) $(, $avx2)?)
            }

            #[cfg(target_arch = "x86_64")]
            if tier.is_avx2() {
                // SAFETY: a `Tier` comes only from `Tier::best` and
                // `Tier::all`, which name `Avx2` only on a CPU that
                // reports AVX2, POPCNT, PCLMULQDQ and SSE4.1: every
                // feature this copy enables.
                return unsafe { avx2($($arg),*) };
            }
            portable($($arg),*)
        }
    };
}
