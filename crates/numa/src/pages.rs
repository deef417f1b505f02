//! Transparent huge pages for the data arenas.
//!
//! A knori arena is tens to hundreds of MB that every iteration streams
//! and that pruning and k-means++ read row by scattered row. Backed by
//! 4 KiB pages it costs one fault per page to fill and a TLB miss per
//! scattered row; a 2 MiB page takes one fault for 512 of those and one
//! TLB entry reaches 512× as far. Hosts commonly run
//! transparent huge pages in `madvise` mode, where nothing is backed by
//! them unless asked, so the arena builder asks.
//!
//! Like binding (`crate::bind`), the advice is a performance hint, never
//! a correctness requirement: off Linux it is a no-op, and a refused
//! advice is ignored. It changes how pages are backed, never what they
//! hold, and a huge page first touched by a thread bound to a node is
//! still placed on that node.

/// The huge-page size the advice targets (x86-64 and aarch64 with 4 KiB
/// base pages).
const HUGE_PAGE_BYTES: usize = 2 << 20;

/// Ask the kernel to back `buf` with transparent huge pages. Call it
/// before the first touch: pages already faulted in stay small until the
/// kernel's background collapse gets to them.
///
/// Only the 2 MiB-aligned interior of `buf` is advised — the only part a
/// huge page can back, and page-aligned at every base page size up to
/// 2 MiB — so the advice never reaches memory `buf` does not own.
pub(crate) fn advise_huge_pages<T>(buf: &mut [T]) {
    let start = buf.as_mut_ptr() as usize;
    let lo = start.next_multiple_of(HUGE_PAGE_BYTES);
    let hi = (start + std::mem::size_of_val(buf)) / HUGE_PAGE_BYTES * HUGE_PAGE_BYTES;
    if lo < hi {
        apply(buf.as_mut_ptr().cast::<u8>().wrapping_add(lo - start), hi - lo);
    }
}

#[cfg(target_os = "linux")]
fn apply(addr: *mut u8, len: usize) {
    // SAFETY: `[addr, addr + len)` lies inside the slice the caller holds
    // mutably, so no other owner's mapping is touched; `MADV_HUGEPAGE`
    // only changes how the range's pages are backed, never their
    // contents, and a failure (THP compiled out, an old kernel) leaves the
    // range as it was.
    let _ = unsafe { libc::madvise(addr.cast(), len, libc::MADV_HUGEPAGE) };
}

#[cfg(not(target_os = "linux"))]
fn apply(_addr: *mut u8, _len: usize) {}

/// Bytes of this process's anonymous memory backed by transparent huge
/// pages right now (`AnonHugePages` of `/proc/self/smaps_rollup`), where
/// the kernel reports it (Linux).
pub fn anon_huge_bytes() -> Option<u64> {
    let rollup = std::fs::read_to_string("/proc/self/smaps_rollup").ok()?;
    let kb = rollup.lines().find_map(|l| l.strip_prefix("AnonHugePages:"))?;
    Some(kb.trim().strip_suffix("kB")?.trim().parse::<u64>().ok()? * 1024)
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use crate::{NumaMatrix, Placement, Topology};
    use knor_matrix::DMatrix;

    /// The `VmFlags` of the `/proc/self/smaps` mapping that holds `addr`.
    fn vm_flags_at(addr: usize) -> String {
        let smaps = std::fs::read_to_string("/proc/self/smaps").expect("read smaps");
        let hex = |s: &str| usize::from_str_radix(s, 16).ok();
        let mut inside = false;
        for line in smaps.lines() {
            // A mapping's header starts `lo-hi` in hex; its fields follow.
            let first = line.split_whitespace().next().unwrap_or("");
            if let Some((Some(lo), Some(hi))) = first.split_once('-').map(|(l, h)| (hex(l), hex(h)))
            {
                inside = (lo..hi).contains(&addr);
            } else if let Some(flags) = line.strip_prefix("VmFlags:").filter(|_| inside) {
                return flags.trim().to_string();
            }
        }
        panic!("no mapping holds {addr:#x}")
    }

    /// The advice marks the arena's mapping `hg` whether or not the kernel
    /// then found a free huge page, so this holds on any THP kernel.
    #[test]
    fn a_placed_arena_is_advised_huge() {
        if !std::path::Path::new("/sys/kernel/mm/transparent_hugepage").exists() {
            return; // THP compiled out: the advice is refused and ignored
        }
        let (nrow, ncol) = (1 << 17, 8); // 8 MiB
        let topo = Topology::synthetic(1, 2);
        let p = Placement::new(&topo, nrow, 2);
        let m = DMatrix::from_vec(vec![1.0; nrow * ncol], nrow, ncol);
        let nm = NumaMatrix::from_dmatrix(&topo, &p, &m);
        // A row in the middle of the one arena is inside its 2 MiB-aligned
        // interior.
        let addr = nm.row(nrow / 2).0.as_ptr() as usize;
        let flags = vm_flags_at(addr);
        assert!(flags.split_whitespace().any(|f| f == "hg"), "VmFlags: {flags}");
        assert_eq!(nm.to_dmatrix(), m);
    }
}
