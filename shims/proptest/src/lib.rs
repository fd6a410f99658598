//! Workspace-local stand-in for `proptest`.
//!
//! Implements the subset of the proptest API the DLA test suites use:
//! the [`strategy::Strategy`] trait with `prop_map`/`prop_recursive`/
//! `boxed`, tuple and range strategies, `any::<T>()`, collection and
//! sample strategies, a regex-subset string strategy, and the
//! [`proptest!`]/`prop_assert*`/[`prop_oneof!`] macros.
//!
//! Differences from upstream, deliberate for an offline shim:
//!
//! * **No shrinking.** A failing case reports its inputs via the
//!   panic message (cases are generated from a seed derived from the
//!   test name, so every failure is reproducible by rerunning).
//! * **Derandomization is per test-name**, not file-backed: the RNG
//!   seed is a hash of the test function's name, so runs are
//!   deterministic across machines without a `proptest-regressions`
//!   directory.

pub mod test_runner {
    //! Configuration and case-level error plumbing.

    /// Subset of proptest's config: only `cases` is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required.
        pub cases: u32,
        /// Cap on `prop_assume` rejections before giving up.
        pub max_global_rejects: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig {
                cases: 256,
                max_global_rejects: 65_536,
            }
        }
    }

    impl ProptestConfig {
        /// Config running `cases` successful cases.
        #[must_use]
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig {
                cases,
                ..ProptestConfig::default()
            }
        }
    }

    /// Why a single generated case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// `prop_assume!` filtered the inputs; try another case.
        Reject(String),
        /// A `prop_assert*` failed: the property is violated.
        Fail(String),
    }

    impl TestCaseError {
        /// Rejection constructor (mirrors upstream).
        #[must_use]
        pub fn reject(reason: impl Into<String>) -> Self {
            TestCaseError::Reject(reason.into())
        }

        /// Failure constructor (mirrors upstream).
        #[must_use]
        pub fn fail(reason: impl Into<String>) -> Self {
            TestCaseError::Fail(reason.into())
        }

        /// Whether this is an assume-rejection.
        #[must_use]
        pub fn is_reject(&self) -> bool {
            matches!(self, TestCaseError::Reject(_))
        }
    }

    /// FNV-1a over the test name: the per-test deterministic seed.
    #[must_use]
    pub fn seed_for(name: &str) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for byte in name.bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and combinators.

    use rand::rngs::StdRng;
    use rand::Rng;
    use std::fmt::Debug;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};
    use std::sync::Arc;

    /// A recipe for generating values of `Self::Value`.
    ///
    /// Object-safe core (`sample`) plus sized combinators, so
    /// `Arc<dyn Strategy<Value = T>>` works as [`BoxedStrategy`].
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut StdRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { source: self, f }
        }

        /// Builds recursive values: `expand` receives a strategy for
        /// the previous level and returns the next level. `depth`
        /// bounds recursion; the size/branch hints are accepted for
        /// API compatibility but unused by the shim.
        fn prop_recursive<F, S>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            expand: F,
        ) -> Recursive<Self::Value>
        where
            Self: Sized + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> S + 'static,
            S: Strategy<Value = Self::Value> + 'static,
        {
            Recursive {
                base: self.boxed(),
                expand: Arc::new(move |inner| expand(inner).boxed()),
                depth,
            }
        }

        /// Type-erases the strategy.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Arc::new(self))
        }
    }

    /// A type-erased, cheaply clonable strategy.
    pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Arc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            self.0.sample(rng)
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        source: S,
        f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;

        fn sample(&self, rng: &mut StdRng) -> O {
            (self.f)(self.source.sample(rng))
        }
    }

    /// See [`Strategy::prop_recursive`].
    pub struct Recursive<T> {
        base: BoxedStrategy<T>,
        #[allow(clippy::type_complexity)]
        expand: Arc<dyn Fn(BoxedStrategy<T>) -> BoxedStrategy<T>>,
        depth: u32,
    }

    impl<T> Strategy for Recursive<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            // Bias towards shallow structures like upstream: each
            // extra level appears with probability 1/2.
            let mut levels = 0;
            while levels < self.depth && rng.gen_bool(0.5) {
                levels += 1;
            }
            let mut strategy = self.base.clone();
            for _ in 0..levels {
                strategy = (self.expand)(strategy);
            }
            strategy.sample(rng)
        }
    }

    /// Uniform choice between same-valued strategies; the engine
    /// behind [`crate::prop_oneof!`].
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// Builds a union over `arms` (must be non-empty).
        #[must_use]
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            let arm = rng.gen_range(0..self.arms.len());
            self.arms[arm].sample(rng)
        }
    }

    /// Strategy that always yields a clone of one value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn sample(&self, _rng: &mut StdRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }
    impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    macro_rules! impl_tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn sample(&self, rng: &mut StdRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.sample(rng),)+)
                }
            }
        };
    }
    impl_tuple_strategy!(A);
    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);
    impl_tuple_strategy!(A, B, C, D, E);
    impl_tuple_strategy!(A, B, C, D, E, F);
    impl_tuple_strategy!(A, B, C, D, E, F, G);
    impl_tuple_strategy!(A, B, C, D, E, F, G, H);

    /// Full-domain strategy for primitives; the engine behind
    /// [`crate::arbitrary::any`].
    #[derive(Debug, Clone, Default)]
    pub struct FullRange<T> {
        _marker: PhantomData<T>,
    }

    impl<T> FullRange<T> {
        /// Constructor.
        #[must_use]
        pub fn new() -> Self {
            FullRange {
                _marker: PhantomData,
            }
        }
    }

    macro_rules! impl_full_range {
        ($($t:ty),*) => {$(
            impl Strategy for FullRange<$t>
            {
                type Value = $t;
                fn sample(&self, rng: &mut StdRng) -> $t {
                    rng.gen()
                }
            }
        )*};
    }
    impl_full_range!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize, bool, f64);

    /// Debug-print helper used by the runner to report failing inputs.
    pub fn describe<T: Debug>(value: &T) -> String {
        format!("{value:?}")
    }
}

pub mod arbitrary {
    //! `any::<T>()` support.

    use crate::strategy::{FullRange, Strategy};

    /// Types with a canonical strategy.
    pub trait Arbitrary: Sized {
        /// That canonical strategy's type.
        type Strategy: Strategy<Value = Self>;

        /// Builds the canonical strategy.
        fn arbitrary() -> Self::Strategy;
    }

    macro_rules! impl_arbitrary_prim {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                type Strategy = FullRange<$t>;
                fn arbitrary() -> Self::Strategy {
                    FullRange::new()
                }
            }
        )*};
    }
    impl_arbitrary_prim!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, isize, bool, f64);

    /// The canonical strategy for `A`.
    #[must_use]
    pub fn any<A: Arbitrary>() -> A::Strategy {
        A::arbitrary()
    }
}

pub mod collection {
    //! Collection strategies (`vec`, `btree_set`).

    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;
    use std::collections::BTreeSet;
    use std::ops::{Range, RangeInclusive};

    /// Inclusive size bounds for collection strategies.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty collection size range");
            SizeRange {
                min: r.start,
                max: r.end - 1,
            }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            assert!(r.start() <= r.end(), "empty collection size range");
            SizeRange {
                min: *r.start(),
                max: *r.end(),
            }
        }
    }

    impl SizeRange {
        fn sample(self, rng: &mut StdRng) -> usize {
            rng.gen_range(self.min..=self.max)
        }
    }

    /// See [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let len = self.size.sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Strategy for `Vec`s whose length falls in `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    /// See [`btree_set`].
    pub struct BTreeSetStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;

        fn sample(&self, rng: &mut StdRng) -> BTreeSet<S::Value> {
            let target = self.size.sample(rng);
            let mut set = BTreeSet::new();
            // Collisions shrink the set below `target`; bound the
            // retry budget so tiny element domains still terminate.
            let mut budget = target * 4 + 8;
            while set.len() < target && budget > 0 {
                set.insert(self.element.sample(rng));
                budget -= 1;
            }
            set
        }
    }

    /// Strategy for `BTreeSet`s with size in `size` (best-effort when
    /// the element domain is smaller than the requested size).
    pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        BTreeSetStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod sample {
    //! Sampling helpers (`select`, `Index`).

    use crate::arbitrary::Arbitrary;
    use crate::strategy::{FullRange, Strategy};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// See [`select`].
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;

        fn sample(&self, rng: &mut StdRng) -> T {
            self.options[rng.gen_range(0..self.options.len())].clone()
        }
    }

    /// Strategy drawing uniformly from an explicit list.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select needs at least one option");
        Select { options }
    }

    /// An index "fraction" resolvable against any non-empty length.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Index(u64);

    impl Index {
        /// Projects onto `0..len`.
        ///
        /// # Panics
        ///
        /// Panics if `len == 0`.
        #[must_use]
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "cannot index an empty collection");
            ((u128::from(self.0) * len as u128) >> 64) as usize
        }
    }

    /// Strategy producing [`Index`] values.
    #[derive(Debug, Clone, Default)]
    pub struct IndexStrategy;

    impl Strategy for IndexStrategy {
        type Value = Index;

        fn sample(&self, rng: &mut StdRng) -> Index {
            Index(rng.gen())
        }
    }

    impl Arbitrary for Index {
        type Strategy = IndexStrategy;

        fn arbitrary() -> Self::Strategy {
            IndexStrategy
        }
    }

    // Keep FullRange import alive for doc-linking parity.
    #[allow(dead_code)]
    type _Unused = FullRange<u8>;
}

pub mod string {
    //! Regex-subset string strategies.
    //!
    //! proptest treats `&str` as a regex-shaped strategy; the suites
    //! here only use sequences of literal characters and character
    //! classes with optional `{n}`/`{m,n}` repetition, so that is the
    //! grammar this parser accepts.

    use crate::strategy::Strategy;
    use rand::rngs::StdRng;
    use rand::Rng;

    #[derive(Debug, Clone)]
    struct Atom {
        choices: Vec<char>,
        min: usize,
        max: usize,
    }

    /// A compiled pattern.
    #[derive(Debug, Clone)]
    pub struct StringStrategy {
        atoms: Vec<Atom>,
    }

    fn parse_class(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Vec<char> {
        let mut choices = Vec::new();
        let mut pending: Option<char> = None;
        loop {
            let c = chars.next().expect("unterminated character class");
            match c {
                ']' => {
                    if let Some(p) = pending {
                        choices.push(p);
                    }
                    return choices;
                }
                '-' if pending.is_some() && chars.peek() != Some(&']') => {
                    let start = pending.take().expect("range start");
                    let end = chars.next().expect("range end");
                    assert!(start <= end, "descending class range");
                    choices.extend(start..=end);
                }
                _ => {
                    if let Some(p) = pending.replace(c) {
                        choices.push(p);
                    }
                }
            }
        }
    }

    fn parse_repeat(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> (usize, usize) {
        if chars.peek() != Some(&'{') {
            return (1, 1);
        }
        chars.next();
        let mut spec = String::new();
        for c in chars.by_ref() {
            if c == '}' {
                break;
            }
            spec.push(c);
        }
        match spec.split_once(',') {
            Some((min, max)) => (
                min.parse().expect("repeat min"),
                max.parse().expect("repeat max"),
            ),
            None => {
                let n = spec.parse().expect("repeat count");
                (n, n)
            }
        }
    }

    /// Compiles `pattern` (panics on syntax outside the subset).
    #[must_use]
    pub fn compile(pattern: &str) -> StringStrategy {
        let mut atoms = Vec::new();
        let mut chars = pattern.chars().peekable();
        while let Some(c) = chars.next() {
            let choices = match c {
                '[' => parse_class(&mut chars),
                '\\' => vec![chars.next().expect("escaped char")],
                _ => vec![c],
            };
            let (min, max) = parse_repeat(&mut chars);
            atoms.push(Atom { choices, min, max });
        }
        StringStrategy { atoms }
    }

    impl Strategy for StringStrategy {
        type Value = String;

        fn sample(&self, rng: &mut StdRng) -> String {
            let mut out = String::new();
            for atom in &self.atoms {
                let reps = rng.gen_range(atom.min..=atom.max);
                for _ in 0..reps {
                    out.push(atom.choices[rng.gen_range(0..atom.choices.len())]);
                }
            }
            out
        }
    }

    impl Strategy for &str {
        type Value = String;

        fn sample(&self, rng: &mut StdRng) -> String {
            compile(self).sample(rng)
        }
    }

    impl Strategy for String {
        type Value = String;

        fn sample(&self, rng: &mut StdRng) -> String {
            compile(self).sample(rng)
        }
    }
}

#[doc(hidden)]
pub mod __rt {
    //! Runner internals reachable from macro expansions regardless of
    //! the caller's own dependency graph.
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;

    /// Seeded RNG for one test function.
    #[must_use]
    pub fn rng_for(test_name: &str) -> StdRng {
        SeedableRng::seed_from_u64(crate::test_runner::seed_for(test_name))
    }
}

pub mod prelude {
    //! One-stop import for test files.

    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };

    /// Namespace mirror (`prop::collection::vec`, `prop::sample::…`).
    pub mod prop {
        pub use crate::collection;
        pub use crate::sample;
    }
}

/// Asserts a boolean property inside a proptest case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)*),
            ));
        }
    };
}

/// Asserts equality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

/// Asserts inequality inside a proptest case.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`: {}",
            left,
            right,
            format!($($fmt)*)
        );
    }};
}

/// Discards the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Uniform choice between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($arm)),+
        ])
    };
}

/// Declares property tests. Mirrors proptest's surface:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn prop(x in 0u64..100, v in prop::collection::vec(any::<u8>(), 0..8)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@munch ($config) $($rest)*);
    };
    (@munch ($config:expr)
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),+ $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            let mut rng =
                $crate::__rt::rng_for(concat!(module_path!(), "::", stringify!($name)));
            $(let $arg = $crate::strategy::Strategy::boxed($strategy);)+
            let strategies = ($($arg,)+);
            let mut passed = 0u32;
            let mut rejected = 0u32;
            while passed < config.cases {
                let ($($arg,)+) = &strategies;
                $(let $arg = $crate::strategy::Strategy::sample($arg, &mut rng);)+
                let case = (move || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $body
                    ::core::result::Result::Ok(())
                })();
                match case {
                    ::core::result::Result::Ok(()) => passed += 1,
                    ::core::result::Result::Err(e) if e.is_reject() => {
                        rejected += 1;
                        if rejected > config.max_global_rejects {
                            panic!(
                                "proptest '{}': too many prop_assume rejections ({rejected})",
                                stringify!($name),
                            );
                        }
                    }
                    ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                        panic!(
                            "proptest '{}' failed after {passed} passing case(s): {msg}",
                            stringify!($name),
                        );
                    }
                    ::core::result::Result::Err(_) => unreachable!(),
                }
            }
        }
        $crate::proptest!(@munch ($config) $($rest)*);
    };
    (@munch ($config:expr)) => {};
    ($($rest:tt)*) => {
        $crate::proptest!(@munch ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use rand::SeedableRng;

    #[test]
    fn string_patterns_match_shape() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let s = Strategy::sample(&"[a-z][a-z0-9]{0,6}", &mut rng);
            assert!(!s.is_empty() && s.len() <= 7, "{s:?}");
            assert!(s.chars().next().unwrap().is_ascii_lowercase());
            assert!(s
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
        }
    }

    #[test]
    fn union_and_recursive_compose() {
        #[derive(Debug, Clone)]
        #[allow(dead_code)]
        enum Tree {
            Leaf(u64),
            Node(Box<Tree>, Box<Tree>),
        }
        fn depth(t: &Tree) -> u32 {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(a, b) => 1 + depth(a).max(depth(b)),
            }
        }
        let strat = (0u64..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 8, 2, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| Tree::Node(Box::new(a), Box::new(b))),
                    inner,
                ]
            });
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut max_depth = 0;
        for _ in 0..200 {
            max_depth = max_depth.max(depth(&Strategy::sample(&strat, &mut rng)));
        }
        assert!(max_depth >= 1, "recursion never fired");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn runner_drives_cases(x in 0u64..100, v in prop::collection::vec(any::<u8>(), 0..8)) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 8);
        }

        #[test]
        fn assume_rejects_and_recovers(a in 0u32..10, b in 0u32..10) {
            prop_assume!(a != b);
            prop_assert_ne!(a, b);
        }
    }

    proptest! {
        #[test]
        fn default_config_block_compiles(x in 0u8..=255) {
            let idx = x; // silence unused
            prop_assert!(u32::from(idx) < 256, "x was {}", idx);
        }
    }
}
