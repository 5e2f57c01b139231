//! The gateway reactor: a deterministic virtual-time event loop that
//! drains per-tenant submission rings into the service and delivers
//! batched completions back.
//!
//! The service is a batch simulator — workers run when `start()` is
//! called and verdicts surface at `drain()` — so the reactor plays the
//! admission timeline *before* start using a virtual-server model of
//! the pool: `workers` servers, each admission occupying one for its
//! estimated duration. That model is what paces quota release (a
//! tenant's in-flight count drops when its modeled completion retires),
//! giving the same admission dynamics a live pool would show, while
//! staying exactly reproducible. The staged arrival trace is freed once
//! that admission timeline is decided, before the pool starts. After
//! the pool drains, a second pass replays the same servers with each
//! call's *true* on-CPU latency to place completion-delivery instants,
//! so reported end-to-end latencies reflect measured service time, not
//! the estimate. It joins each verdict to its admission through a
//! dense index from token (minted `0..n` at enqueue) to outcome
//! position, reading the outcome in place.
//!
//! Three invariants the loop maintains (checked by
//! [`GatewayReport::check_conservation`] and re-checked from the
//! recorded trace by `obs::verify`):
//!
//! 1. every enqueued submission is admitted or shed, never dropped;
//! 2. every admitted call produces exactly one delivered completion;
//! 3. sheds carry an explicit reason, counted per tenant.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use obs::{Event, EventKind};
use runtime::report::percentile;
use runtime::{ServiceReport, SubmitError, WorldCallService};

use crate::ring::{CompletionRing, SubmissionRing};
use crate::{
    CallRequest, Completion, GatewayConfig, ShedReason, Submission, BUSY_SHED_THRESHOLD,
    COMPLETION_BATCH, GATEWAY_TRACK,
};

/// The admission model's estimate of per-call overhead on top of the
/// requested body work: state save, authentication, `world_call`,
/// return, state restore. Only used to pace the virtual servers during
/// admission — completion delivery uses each call's measured on-CPU
/// latency, so a wrong estimate skews interleaving, never accounting.
pub const EST_CALL_OVERHEAD_CYCLES: u64 = 200;

/// One admission the reactor performed, in admission order.
#[derive(Debug, Clone, Copy)]
struct Admitted {
    token: u64,
    user_tag: u64,
    tenant: u32,
    arrival_cycles: u64,
    admitted_cycles: u64,
}

/// Per-tenant accounting the reactor accumulates.
#[derive(Debug, Default, Clone, Copy)]
struct TenantTally {
    submitted: u64,
    admitted: u64,
    shed_ring_full: u64,
    shed_health: u64,
    shed_busy: u64,
    shed_denied: u64,
}

impl TenantTally {
    fn shed(&self) -> u64 {
        self.shed_ring_full + self.shed_health + self.shed_busy + self.shed_denied
    }
}

/// What one tenant saw from a gateway run.
#[derive(Debug)]
pub struct TenantReport {
    /// Tenant id (dense, the gateway config index).
    pub tenant: u32,
    /// Submissions the tenant enqueued.
    pub submitted: u64,
    /// Of those, admitted into the service.
    pub admitted: u64,
    /// Shed because the submission ring was full at arrival.
    pub shed_ring_full: u64,
    /// Shed because the service's health ladder was at `Shedding`.
    pub shed_health: u64,
    /// Shed on service backpressure (`Busy`, or the busy latch).
    pub shed_busy: u64,
    /// Shed because the service's authz policy holds no grant for the
    /// submission's (caller, callee) pair.
    pub shed_denied: u64,
    /// Deepest the tenant's submission ring got.
    pub ring_high_water: usize,
    /// The tenant's completion ring, holding every delivered verdict.
    pub completions: CompletionRing,
    /// p99 of end-to-end (arrival → delivery) cycles over the tenant's
    /// admitted calls; 0 if none were admitted.
    pub e2e_p99_cycles: u64,
}

impl TenantReport {
    /// Total sheds for this tenant, all reasons.
    pub fn shed(&self) -> u64 {
        self.shed_ring_full + self.shed_health + self.shed_busy + self.shed_denied
    }
}

/// The drained result of a gateway run: gateway-level accounting, the
/// per-tenant reports (completion rings included) and the wrapped
/// [`ServiceReport`] from the pool underneath.
#[derive(Debug)]
pub struct GatewayReport {
    /// Submissions enqueued across all tenants.
    pub submitted: u64,
    /// Of those, admitted into the service.
    pub admitted: u64,
    /// Of those, shed — every one carries a reason below.
    pub shed: u64,
    /// Sheds at the submission-ring door.
    pub shed_ring_full: u64,
    /// Sheds because the health ladder said `Shedding`.
    pub shed_health: u64,
    /// Sheds on service backpressure.
    pub shed_busy: u64,
    /// Sheds on authz policy refusal at the admission precheck.
    pub shed_denied: u64,
    /// Completions delivered to tenant rings (== admitted).
    pub completions_delivered: u64,
    /// Delivery batches flushed (== `completion_batch` events emitted).
    pub completion_batches: u64,
    /// Per-tenant breakdowns, indexed by tenant id.
    pub tenants: Vec<TenantReport>,
    /// End-to-end cycles of every admitted call, sorted ascending.
    pub admitted_e2e_cycles: Vec<u64>,
    /// Gateway obs events (admit/shed/batch) on [`GATEWAY_TRACK`],
    /// time-ordered.
    pub events: Vec<Event>,
    /// The underlying pool's drained report.
    pub service: ServiceReport,
}

impl GatewayReport {
    /// Percentile of end-to-end admitted-call latency (cycles).
    pub fn e2e_percentile(&self, pct: f64) -> u64 {
        percentile(&self.admitted_e2e_cycles, pct)
    }

    /// Checks the gateway's conservation contract and returns the first
    /// violation, if any:
    ///
    /// * `submitted == admitted + shed`, globally and per tenant;
    /// * every admitted call got exactly one verdict from the service
    ///   (`admitted == completed + timed_out + failed + dead_lettered`);
    /// * every admitted call's completion was delivered.
    ///
    /// # Errors
    ///
    /// A human-readable description of the violated invariant.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.submitted != self.admitted + self.shed {
            return Err(format!(
                "gateway lost submissions: {} submitted != {} admitted + {} shed",
                self.submitted, self.admitted, self.shed
            ));
        }
        if self.shed != self.shed_ring_full + self.shed_health + self.shed_busy + self.shed_denied {
            return Err(format!("{} sheds lack a reason", self.shed));
        }
        for t in &self.tenants {
            if t.submitted != t.admitted + t.shed() {
                return Err(format!(
                    "tenant {}: {} submitted != {} admitted + {} shed",
                    t.tenant,
                    t.submitted,
                    t.admitted,
                    t.shed()
                ));
            }
        }
        let verdicts = self.service.completed
            + self.service.timed_out
            + self.service.failed
            + self.service.dead_lettered
            + self.service.denied;
        if self.admitted != verdicts {
            return Err(format!(
                "verdict conservation broken: {} admitted != {verdicts} verdicts",
                self.admitted
            ));
        }
        if self.completions_delivered != self.admitted {
            return Err(format!(
                "delivery broken: {} admitted != {} completions delivered",
                self.admitted, self.completions_delivered
            ));
        }
        Ok(())
    }
}

/// The async tenant gateway. Build one over a [`GatewayConfig`], stage
/// the open-loop arrival trace with [`Gateway::enqueue`], then hand it
/// a fully configured (worlds registered, channels attached, not yet
/// started) service with [`Gateway::run`].
#[derive(Debug)]
pub struct Gateway {
    config: GatewayConfig,
    staged: Vec<Submission>,
    next_token: u64,
}

impl Gateway {
    /// A gateway with the given configuration.
    ///
    /// # Panics
    ///
    /// On nonsensical knobs (zero quota or ring capacity).
    pub fn new(config: GatewayConfig) -> Gateway {
        config.validate();
        Gateway {
            config,
            staged: Vec::new(),
            next_token: 0,
        }
    }

    /// Stages one open-loop submission arriving at `at_cycles` of
    /// virtual time, returning its completion token. Staging is
    /// unbounded — it is the *arrival trace*, not the ring; ring
    /// capacity is enforced when the reactor replays the trace.
    ///
    /// # Panics
    ///
    /// If `tenant` has no [`crate::TenantConfig`] entry.
    pub fn enqueue(&mut self, tenant: u32, at_cycles: u64, request: CallRequest) -> u64 {
        assert!(
            (tenant as usize) < self.config.tenants.len(),
            "tenant {tenant} has no gateway config entry"
        );
        let token = self.next_token;
        self.next_token += 1;
        self.staged.push(Submission {
            token,
            tenant,
            arrival_cycles: at_cycles,
            request,
        });
        token
    }

    /// Runs the staged trace against the service and drains it: the
    /// two-pass reactor described in the module docs.
    ///
    /// The gateway owns the service lifecycle from here: admission
    /// happens against the un-started pool (every admitted call is
    /// pre-start, keeping single-worker runs cycle-deterministic), then
    /// `start()`/`drain()`, then completion delivery.
    pub fn run(mut self, mut svc: WorldCallService) -> GatewayReport {
        self.staged
            .sort_by_key(|s| (s.arrival_cycles, s.tenant, s.token));
        let n = self.config.tenants.len();
        let workers = svc.config().workers.max(1);
        let mut rings: Vec<SubmissionRing> = self
            .config
            .tenants
            .iter()
            .map(|t| SubmissionRing::new(t.ring_capacity))
            .collect();
        let mut tallies = vec![TenantTally::default(); n];
        let mut in_flight = vec![0usize; n];
        // The admission model: one virtual server per worker, a min-heap
        // of server-free instants, and a min-heap of modeled completion
        // retirements (done, admission seq, tenant).
        let mut servers: BinaryHeap<Reverse<u64>> = (0..workers).map(|_| Reverse(0)).collect();
        let mut retirements: BinaryHeap<Reverse<(u64, u64, u32)>> = BinaryHeap::new();
        let mut admissions: Vec<Admitted> = Vec::new();
        let mut events: Vec<Event> = Vec::new();
        let mut busy_streak = 0u32;
        let mut busy_latched = false;

        let shed = |sub: Submission,
                    reason: ShedReason,
                    at: u64,
                    tallies: &mut Vec<TenantTally>,
                    events: &mut Vec<Event>| {
            let tally = &mut tallies[sub.tenant as usize];
            match reason {
                ShedReason::RingFull => tally.shed_ring_full += 1,
                ShedReason::Health => tally.shed_health += 1,
                ShedReason::Busy => tally.shed_busy += 1,
                ShedReason::Denied => tally.shed_denied += 1,
            }
            events.push(Event::new(
                at,
                GATEWAY_TRACK,
                EventKind::GatewayShed,
                sub.token,
                u64::from(sub.tenant),
                reason as u64,
            ));
        };

        let mut t: u64 = 0;
        let mut next_arrival = 0usize;
        loop {
            // 1. Arrivals due at or before t enter their tenant's ring
            //    (or shed at the door).
            while next_arrival < self.staged.len() && self.staged[next_arrival].arrival_cycles <= t
            {
                let sub = self.staged[next_arrival];
                next_arrival += 1;
                tallies[sub.tenant as usize].submitted += 1;
                if busy_latched {
                    shed(sub, ShedReason::Busy, t, &mut tallies, &mut events);
                } else if let Err(rejected) = rings[sub.tenant as usize].push(sub) {
                    shed(rejected, ShedReason::RingFull, t, &mut tallies, &mut events);
                }
            }
            // 2. Modeled completions due at or before t retire, freeing
            //    their tenant's quota.
            while let Some(&Reverse((done, _, tenant))) = retirements.peek() {
                if done > t {
                    break;
                }
                retirements.pop();
                in_flight[tenant as usize] -= 1;
            }
            // 3. WRR admission rounds at this instant, until a full
            //    round admits nothing.
            loop {
                let mut any = false;
                for tid in 0..n {
                    let mut credits = self.config.tenants[tid].class.weight();
                    while credits > 0 && !busy_latched {
                        if rings[tid].peek().is_none()
                            || in_flight[tid] >= self.config.tenants[tid].quota
                        {
                            break;
                        }
                        let sub = rings[tid].pop().expect("peeked above");
                        if svc.health().is_shedding() {
                            // The ladder's bottom rung: shed here, at
                            // the gateway, with per-tenant accounting —
                            // the service never sees the request.
                            shed(sub, ShedReason::Health, t, &mut tallies, &mut events);
                            continue;
                        }
                        // Authz precheck, side-effect-free (`would_admit`
                        // touches no counters and spends no tokens): a
                        // (caller, callee) pair the policy would refuse
                        // at dispatch anyway is shed here instead of
                        // burning queue capacity. Chain-provenance and
                        // rate-limit verdicts stay at dispatch — only
                        // the static grant is knowable this early.
                        if let Some(policy) = svc.authz() {
                            if !policy.would_admit(sub.request.caller, sub.request.callee) {
                                shed(sub, ShedReason::Denied, t, &mut tallies, &mut events);
                                continue;
                            }
                        }
                        let wire = sub.request.with_tag(sub.token).with_tenant(sub.tenant);
                        match svc.try_submit(wire) {
                            Ok(()) => {
                                busy_streak = 0;
                                let Reverse(free) = servers.pop().expect("one per worker");
                                let done = free.max(t)
                                    + sub.request.work_cycles
                                    + EST_CALL_OVERHEAD_CYCLES;
                                servers.push(Reverse(done));
                                retirements.push(Reverse((
                                    done,
                                    admissions.len() as u64,
                                    sub.tenant,
                                )));
                                in_flight[tid] += 1;
                                tallies[tid].admitted += 1;
                                events.push(Event::new(
                                    t,
                                    GATEWAY_TRACK,
                                    EventKind::GatewayAdmit,
                                    sub.token,
                                    u64::from(sub.tenant),
                                    sub.request.callee.raw(),
                                ));
                                admissions.push(Admitted {
                                    token: sub.token,
                                    user_tag: sub.request.tag,
                                    tenant: sub.tenant,
                                    arrival_cycles: sub.arrival_cycles,
                                    admitted_cycles: t,
                                });
                                credits -= 1;
                                any = true;
                            }
                            Err(SubmitError::Busy(_)) => {
                                shed(sub, ShedReason::Busy, t, &mut tallies, &mut events);
                                busy_streak += 1;
                                if busy_streak >= BUSY_SHED_THRESHOLD {
                                    busy_latched = true;
                                }
                            }
                            Err(SubmitError::Closed(_)) => {
                                unreachable!("gateway owns the service until drain")
                            }
                        }
                    }
                }
                if !any {
                    break;
                }
            }
            // 4. A tripped busy latch means the service queue cannot
            //    take more pre-start work at all: fast-shed the whole
            //    remaining backlog instead of knocking per head.
            if busy_latched {
                for ring in rings.iter_mut() {
                    while let Some(sub) = ring.pop() {
                        shed(sub, ShedReason::Busy, t, &mut tallies, &mut events);
                    }
                }
                while next_arrival < self.staged.len() {
                    let sub = self.staged[next_arrival];
                    next_arrival += 1;
                    tallies[sub.tenant as usize].submitted += 1;
                    shed(
                        sub,
                        ShedReason::Busy,
                        sub.arrival_cycles,
                        &mut tallies,
                        &mut events,
                    );
                }
                break;
            }
            // 5. Advance to the next arrival or modeled retirement;
            //    nothing left means the trace is fully decided.
            let next_a = self.staged.get(next_arrival).map(|s| s.arrival_cycles);
            let next_r = retirements.peek().map(|&Reverse((done, _, _))| done);
            t = match (next_a, next_r) {
                (Some(a), Some(r)) => a.min(r),
                (Some(a), None) => a,
                (None, Some(r)) => r,
                (None, None) => break,
            };
        }

        // The admission timeline is fixed: free the staged trace, then
        // run the pool for real.
        let tokens = self.next_token as usize;
        drop(std::mem::take(&mut self.staged));
        svc.start();
        let service = svc.drain();

        // Pass 2: replay the servers with measured latencies to place
        // completion-delivery instants, then batch per tenant. Tokens
        // are minted densely from 0, so each admission finds its
        // verdict through the token's outcome position (`u32::MAX`:
        // none, or already joined).
        let mut position = vec![u32::MAX; tokens];
        for (pos, o) in service.outcomes.iter().enumerate() {
            if let Some(slot) = position.get_mut(o.request.tag as usize) {
                *slot = pos as u32;
            }
        }
        let mut servers: BinaryHeap<Reverse<u64>> = (0..workers).map(|_| Reverse(0)).collect();
        let mut deliveries: Vec<Completion> = admissions
            .iter()
            .map(|adm| {
                let pos = std::mem::replace(&mut position[adm.token as usize], u32::MAX);
                let outcome = service
                    .outcomes
                    .get(pos as usize)
                    .expect("exactly one verdict per admitted call");
                let Reverse(free) = servers.pop().expect("one per worker");
                let done = free.max(adm.admitted_cycles) + outcome.latency_cycles;
                servers.push(Reverse(done));
                Completion {
                    token: adm.token,
                    user_tag: adm.user_tag,
                    tenant: adm.tenant,
                    verdict: outcome.verdict.clone(),
                    arrival_cycles: adm.arrival_cycles,
                    admitted_cycles: adm.admitted_cycles,
                    done_cycles: done,
                }
            })
            .collect();
        drop((position, admissions));
        deliveries.sort_by_key(|c| (c.done_cycles, c.token));

        let mut completion_rings: Vec<CompletionRing> = tallies
            .iter()
            .map(|t| CompletionRing::with_capacity(t.admitted as usize))
            .collect();
        let mut pending: Vec<Vec<Completion>> = (0..n)
            .map(|_| Vec::with_capacity(COMPLETION_BATCH))
            .collect();
        let flush = |tid: usize,
                     pending: &mut [Vec<Completion>],
                     completion_rings: &mut [CompletionRing],
                     events: &mut Vec<Event>| {
            let batch = &mut pending[tid];
            let Some(last) = batch.last() else {
                return;
            };
            events.push(Event::new(
                last.done_cycles,
                GATEWAY_TRACK,
                EventKind::CompletionBatch,
                batch.len() as u64,
                tid as u64,
                0,
            ));
            completion_rings[tid].deliver(batch);
        };
        let mut delivered = 0u64;
        for c in deliveries {
            let tid = c.tenant as usize;
            delivered += 1;
            pending[tid].push(c);
            if pending[tid].len() >= COMPLETION_BATCH {
                flush(tid, &mut pending, &mut completion_rings, &mut events);
            }
        }
        for tid in 0..n {
            flush(tid, &mut pending, &mut completion_rings, &mut events);
        }
        events.sort_by_key(|e| e.ts);

        let mut admitted_e2e: Vec<u64> = Vec::new();
        let mut tenants: Vec<TenantReport> = Vec::with_capacity(n);
        let mut completion_batches = 0u64;
        for (tid, ring) in completion_rings.into_iter().enumerate() {
            let tally = tallies[tid];
            let mut e2e: Vec<u64> = ring.iter().map(Completion::end_to_end_cycles).collect();
            e2e.sort_unstable();
            admitted_e2e.extend_from_slice(&e2e);
            completion_batches += ring.batches();
            tenants.push(TenantReport {
                tenant: tid as u32,
                submitted: tally.submitted,
                admitted: tally.admitted,
                shed_ring_full: tally.shed_ring_full,
                shed_health: tally.shed_health,
                shed_busy: tally.shed_busy,
                shed_denied: tally.shed_denied,
                ring_high_water: rings[tid].high_water(),
                e2e_p99_cycles: percentile(&e2e, 99.0),
                completions: ring,
            });
        }
        admitted_e2e.sort_unstable();

        GatewayReport {
            submitted: tallies.iter().map(|t| t.submitted).sum(),
            admitted: tallies.iter().map(|t| t.admitted).sum(),
            shed: tallies.iter().map(TenantTally::shed).sum(),
            shed_ring_full: tallies.iter().map(|t| t.shed_ring_full).sum(),
            shed_health: tallies.iter().map(|t| t.shed_health).sum(),
            shed_busy: tallies.iter().map(|t| t.shed_busy).sum(),
            shed_denied: tallies.iter().map(|t| t.shed_denied).sum(),
            completions_delivered: delivered,
            completion_batches,
            tenants,
            admitted_e2e_cycles: admitted_e2e,
            events,
            service,
        }
    }
}
