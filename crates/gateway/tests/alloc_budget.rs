//! Host allocation budget of the serving path.
//!
//! `Gateway::run` keeps each call's record once: the worker writes its
//! outcome into a log the service sized at start, the drain moves the
//! logs into the report, pass 2 joins verdicts by token index and every
//! tenant refills one completion batch buffer. This binary counts every
//! heap allocation the process makes while one pre-admitted trace runs
//! and bounds allocations and bytes per admitted call, so a per-call or
//! per-batch allocation fails here.
//!
//! It holds a single test: the counters are process-wide, and a second
//! test running on another thread would count into them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use machine::rng::SplitMix64;
use runtime::{CallRequest, RuntimeConfig, SwitchlessConfig, WorldCallService};
use xover_gateway::{Gateway, GatewayConfig, TenantClass, TenantConfig};

/// Forwards to the system allocator, counting allocations and bytes
/// requested (a reallocation counts as one allocation of its new size).
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // upholds `GlobalAlloc::realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CALLS: u64 = 24_000;
const TENANTS: u32 = 4;

/// One worker over four tenants' user/kernel world pairs (8 worlds) with
/// working sets and switchless channels, as perfbench's `serve_hot`.
fn build_service() -> (WorldCallService, Vec<[crossover::world::Wid; 2]>) {
    let mut svc = WorldCallService::new(RuntimeConfig {
        workers: 1,
        queue_capacity: CALLS as usize + 16,
        switchless: SwitchlessConfig::adaptive(),
        ..RuntimeConfig::default()
    });
    let mut worlds = Vec::new();
    for t in 0..u64::from(TENANTS) {
        let vm = svc
            .create_vm(hypervisor::vm::VmConfig::named(&format!("alloc-{t}")))
            .expect("create vm");
        let user = svc
            .register_guest_user(vm, 0x1000 * (t + 1), 0x40_0000)
            .expect("register user world");
        let kernel = svc
            .register_guest_kernel(vm, 0x10_0000, 0xFFFF_8000)
            .expect("register kernel world");
        for w in [user, kernel] {
            svc.attach_working_set(w, vm, 8)
                .expect("attach working set");
            svc.attach_channel(w, vm).expect("attach channel");
        }
        worlds.push([user, kernel]);
    }
    (svc, worlds)
}

#[test]
fn gateway_run_allocates_per_batch_not_per_call() {
    let (svc, worlds) = build_service();
    let tenants = (0..TENANTS)
        .map(|_| TenantConfig::new(TenantClass::Silver, CALLS as usize, CALLS as usize))
        .collect();
    let mut gw = Gateway::new(GatewayConfig::rings(tenants));
    let mut rng = SplitMix64::new(0xA110_C8ED);
    for i in 0..CALLS {
        let tenant = (i % u64::from(TENANTS)) as u32;
        let caller = worlds[tenant as usize][0];
        // Mostly the tenant's own kernel (the hot pair the switchless
        // channels coalesce), now and then another tenant's.
        let callee = if rng.chance(0.8) {
            worlds[tenant as usize][1]
        } else {
            worlds[rng.below(u64::from(TENANTS)) as usize][1]
        };
        let work = 60 + rng.below(240);
        let request = CallRequest::new(caller, callee, work, work / 3)
            .with_touches(rng.below(4))
            .with_tenant(tenant);
        gw.enqueue(tenant, i * 550, request);
    }

    let (allocs_before, bytes_before) = (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    let report = gw.run(svc);
    let allocs = ALLOCS.load(Ordering::Relaxed) - allocs_before;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes_before;

    assert_eq!(report.admitted, CALLS, "every call is admitted");
    report.check_conservation().expect("conservation");
    let per_call = |n: u64| n as f64 / report.admitted as f64;
    eprintln!(
        "Gateway::run: {:.4} allocations and {:.0} bytes per admitted call",
        per_call(allocs),
        per_call(bytes)
    );
    assert!(
        per_call(allocs) <= 0.05,
        "{:.4} allocations per admitted call",
        per_call(allocs)
    );
    assert!(
        per_call(bytes) <= 1_800.0,
        "{:.0} bytes per admitted call",
        per_call(bytes)
    );
}
