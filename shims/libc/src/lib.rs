//! Offline shim for the `libc` crate: only the surface knor actually uses
//! is provided — the CPU-affinity and `madvise(2)` calls for `knor-numa`.
//! The functions are direct bindings to the system C library, so behaviour
//! matches the real crate on Linux/glibc targets.

#![allow(non_camel_case_types, non_snake_case)]

use std::os::raw::c_int;

pub use std::ffi::c_void;

/// Size in bits of the static CPU set, matching glibc's `CPU_SETSIZE`.
pub const CPU_SETSIZE: c_int = 1024;

const ULONG_BITS: usize = usize::BITS as usize;

/// Mirror of glibc's `cpu_set_t`: a 1024-bit mask stored as unsigned longs.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct cpu_set_t {
    bits: [usize; CPU_SETSIZE as usize / ULONG_BITS],
}

/// Clear every CPU in `set` (glibc macro `CPU_ZERO`).
///
/// # Safety
/// Matches the signature of the real crate; safe in practice, marked unsafe
/// for drop-in compatibility.
pub unsafe fn CPU_ZERO(set: &mut cpu_set_t) {
    for word in set.bits.iter_mut() {
        *word = 0;
    }
}

/// Add `cpu` to `set` (glibc macro `CPU_SET`).
///
/// # Safety
/// See [`CPU_ZERO`].
pub unsafe fn CPU_SET(cpu: usize, set: &mut cpu_set_t) {
    if cpu < CPU_SETSIZE as usize {
        set.bits[cpu / ULONG_BITS] |= 1usize << (cpu % ULONG_BITS);
    }
}

/// Test whether `cpu` is in `set` (glibc macro `CPU_ISSET`).
///
/// # Safety
/// See [`CPU_ZERO`].
pub unsafe fn CPU_ISSET(cpu: usize, set: &cpu_set_t) -> bool {
    cpu < CPU_SETSIZE as usize && set.bits[cpu / ULONG_BITS] & (1usize << (cpu % ULONG_BITS)) != 0
}

/// `madvise` advice: back the range with transparent huge pages where the
/// kernel can (Linux).
pub const MADV_HUGEPAGE: c_int = 14;

extern "C" {
    /// Bind the calling thread (`pid == 0`) to the CPUs in `mask`.
    pub fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const cpu_set_t) -> c_int;
    /// Fetch the calling thread's affinity mask into `mask`.
    pub fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut cpu_set_t) -> c_int;
    /// Advise the kernel about the use of `len` bytes at the page-aligned
    /// `addr`. Returns 0, or -1 with `errno` set.
    pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_test_round_trip() {
        unsafe {
            let mut set: cpu_set_t = std::mem::zeroed();
            CPU_ZERO(&mut set);
            assert!(!CPU_ISSET(0, &set));
            CPU_SET(0, &mut set);
            CPU_SET(63, &mut set);
            CPU_SET(64, &mut set);
            assert!(CPU_ISSET(0, &set));
            assert!(CPU_ISSET(63, &set));
            assert!(CPU_ISSET(64, &set));
            assert!(!CPU_ISSET(1, &set));
        }
    }

    #[test]
    fn getaffinity_reports_at_least_one_cpu() {
        unsafe {
            let mut set: cpu_set_t = std::mem::zeroed();
            let rc = sched_getaffinity(0, std::mem::size_of::<cpu_set_t>(), &mut set);
            assert_eq!(rc, 0);
            assert!((0..CPU_SETSIZE as usize).any(|c| CPU_ISSET(c, &set)));
        }
    }
}
