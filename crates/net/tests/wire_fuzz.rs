//! Robustness property tests for the wire format: decoding arbitrary
//! bytes must never panic — malformed input always surfaces as
//! `WireError` — and never allocates more than the input could back.

use dla_net::wire::{Reader, Writer};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest single allocation this thread asked for since reset.
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, recording each thread's largest request.
struct PeakAlloc;

impl PeakAlloc {
    fn record(size: usize) {
        // `try_with`: a thread tearing down its locals still allocates.
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(size)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: the caller's contract for `alloc` is `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

/// The largest single allocation `f` makes on this thread.
fn peak_allocation(f: impl FnOnce()) -> usize {
    PEAK.set(0);
    f();
    PEAK.get()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reader_never_panics_on_arbitrary_bytes(
        data in prop::collection::vec(any::<u8>(), 0..256),
        script in prop::collection::vec(0u8..6, 1..8),
    ) {
        let mut r = Reader::new(&data);
        for step in script {
            // Each accessor either succeeds or returns an error; none
            // may panic or read out of bounds.
            let result: Result<(), _> = match step {
                0 => r.get_u8().map(|_| ()),
                1 => r.get_u64().map(|_| ()),
                2 => r.get_u128().map(|_| ()),
                3 => r.get_bytes().map(|_| ()),
                4 => r.get_str().map(|_| ()),
                _ => r.get_list(|r| r.get_u64()).map(|_| ()),
            };
            if result.is_err() {
                break;
            }
        }
    }

    #[test]
    fn truncating_a_valid_message_errors_cleanly(
        strings in prop::collection::vec("[a-z]{0,12}", 0..5),
        numbers in prop::collection::vec(any::<u64>(), 0..5),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut w = Writer::new();
        w.put_list(&numbers, |w, &n| {
            w.put_u64(n);
        });
        w.put_list(&strings, |w, s| {
            w.put_str(s);
        });
        let msg = w.finish();
        let len = cut.index(msg.len().max(1)).min(msg.len());
        let truncated = &msg[..len];

        let mut r = Reader::new(truncated);
        let nums = r.get_list(|r| r.get_u64());
        if len == msg.len() {
            // Whole message: everything decodes.
            prop_assert_eq!(nums.unwrap(), numbers);
            let strs: Vec<String> = r
                .get_list(|r| r.get_str().map(str::to_owned))
                .unwrap();
            prop_assert_eq!(strs, strings);
            prop_assert!(r.finish().is_ok());
        } else if let Ok(nums) = nums {
            // Truncation may land after the number section; then the
            // string section must fail or the reader must report
            // trailing/short data.
            prop_assert_eq!(nums, numbers);
            let strs = r.get_list(|r| r.get_str().map(str::to_owned));
            let remaining = r.remaining();
            prop_assert!(strs.is_err() || remaining == 0 || r.finish().is_err());
        }
    }

    #[test]
    fn single_bit_flips_never_panic_protocol_decoders(
        numbers in prop::collection::vec(any::<u64>(), 1..6),
        flip_byte in any::<prop::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut w = Writer::new();
        w.put_u8(0x03);
        w.put_list(&numbers, |w, &n| {
            w.put_u64(n);
        });
        let msg = w.finish();
        let mut corrupted = msg.to_vec();
        let idx = flip_byte.index(corrupted.len());
        corrupted[idx] ^= 1 << flip_bit;

        // Decoding the corrupted message must yield Ok(different data)
        // or Err — never a panic.
        let mut r = Reader::new(&corrupted);
        let _ = r.get_u8();
        let _ = r.get_list(|r| r.get_u64());
        let _ = r.finish();
    }

    /// A list count is checked against the bytes left, but an element
    /// can be wider in memory than on the wire (a `Ubig` or a `Vec` is
    /// 24 bytes). Whatever count it claims, a list that fails to decode
    /// never makes an allocation larger than the input.
    #[test]
    fn a_hostile_list_count_reserves_no_more_than_the_input(
        len in 0usize..65_536,
        claim in any::<prop::sample::Index>(),
        width in 0u8..3,
    ) {
        let count = claim.index(len + 1) as u64;
        // Every length prefix in the body reads as u64::MAX.
        let mut data = count.to_be_bytes().to_vec();
        data.resize(8 + len, 0xFF);
        let peak = peak_allocation(|| {
            let mut r = Reader::new(&data);
            match width {
                0 => drop(r.get_list(|r| r.get_u8())),
                1 => drop(r.get_list(|r| r.get_u64())),
                _ => drop(r.get_list(|r| r.get_bytes().map(<[u8]>::to_vec))),
            }
        });
        prop_assert!(peak <= data.len(), "{} bytes for a {}-byte input", peak, data.len());
    }
}
