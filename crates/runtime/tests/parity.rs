//! Plane parity: every optional plane is free when off and
//! cycle-invisible when on.
//!
//! Obs recording, authz checks and an armed-but-empty fault plan are
//! host-side bookkeeping that charge zero virtual cycles
//! and never change a control path a worker takes. Each row of the
//! table below names a reference setup and a variant that may differ
//! only in host-side work; the two runs must agree cycle for cycle
//! ([`common::assert_cycle_exact`]). Every row runs single-worker (so
//! the runs are deterministic in virtual time) with switchless off and
//! on, so both execution paths are covered. Each run also checks what
//! its own setup promises (`check_setup`): a recording that has events
//! and no drops, an authz plane that checked every call and denied
//! none, and zero supervisor activity under an empty plan.

mod common;

use common::{assert_cycle_exact, run, single_worker};
use machine::fault::FaultPlan;
use xover_runtime::{AuthzConfig, ObsConfig, RuntimeConfig, ServiceReport, SwitchlessConfig};

const SEED: u64 = 0x51_0D06;
const CALLS: u64 = 600;

/// The fault schedule a run is armed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// No plan installed.
    Unarmed,
    /// An installed plan with no events.
    Empty,
}

impl Plan {
    fn build(self) -> Option<FaultPlan> {
        match self {
            Plan::Unarmed => None,
            Plan::Empty => Some(FaultPlan::new()),
        }
    }
}

/// One run's knobs: the planes under test plus its fault plan.
#[derive(Debug, Clone, Copy)]
struct Setup {
    obs: ObsConfig,
    authz: AuthzConfig,
    plan: Plan,
}

/// The table: (row, reference setup, variant setup).
fn rows() -> Vec<(&'static str, Setup, Setup)> {
    let default = Setup {
        obs: ObsConfig::default(),
        authz: AuthzConfig::default(),
        plan: Plan::Unarmed,
    };
    vec![
        (
            "obs default vs off",
            default,
            Setup {
                obs: ObsConfig::off(),
                ..default
            },
        ),
        (
            "obs off vs ring",
            default,
            Setup {
                obs: ObsConfig::ring(),
                ..default
            },
        ),
        (
            "authz off vs permissive",
            default,
            Setup {
                authz: AuthzConfig::permissive(),
                ..default
            },
        ),
        (
            "no plan vs empty plan",
            default,
            Setup {
                plan: Plan::Empty,
                ..default
            },
        ),
    ]
}

fn run_setup(setup: Setup, switchless: SwitchlessConfig) -> ServiceReport {
    let config = RuntimeConfig {
        switchless,
        obs: setup.obs,
        authz: setup.authz,
        ..single_worker(CALLS)
    };
    run(config, setup.plan.build(), SEED, CALLS)
}

/// What a run's own setup promises, beyond matching its reference.
fn check_setup(setup: Setup, report: &ServiceReport, label: &str) {
    match &report.obs {
        Some(recorded) => {
            assert!(setup.obs.enabled(), "{label}: obs off must not record");
            assert!(recorded.total_events() > 0, "{label}: ring has no events");
            assert_eq!(recorded.dropped(), 0, "{label}: default ring dropped");
        }
        None => assert!(!setup.obs.enabled(), "{label}: obs ring must record"),
    }
    assert_eq!(report.authz.enabled, setup.authz.enabled(), "{label}");
    if setup.authz.enabled() {
        assert_eq!(
            report.authz.checks, CALLS,
            "{label}: every dispatched call is checked exactly once"
        );
        assert_eq!(report.authz.total_denied(), 0, "{label}");
        assert_eq!(report.denied, 0, "{label}");
    }
    if setup.plan == Plan::Empty {
        let sup = &report.supervisor;
        assert_eq!(sup.totals.faults_observed(), 0, "{label}");
        assert_eq!(sup.totals.respawns, 0, "{label}");
        assert_eq!(sup.totals.backoff_cycles, 0, "{label}");
        assert_eq!(sup.degrade_escalations, 0, "{label}");
        assert_eq!(report.dead_lettered, 0, "{label}");
    }
}

#[test]
fn every_plane_is_cycle_exact_against_its_reference() {
    for (name, reference, variant) in rows() {
        for (mode, switchless) in [
            ("switchless off", SwitchlessConfig::default()),
            ("switchless on", SwitchlessConfig::on()),
        ] {
            let label = format!("{name}, {mode}");
            let a = run_setup(reference, switchless);
            let b = run_setup(variant, switchless);
            check_setup(reference, &a, &format!("{label} (reference)"));
            check_setup(variant, &b, &format!("{label} (variant)"));
            assert_cycle_exact(&a, &b, &label);
        }
    }
}
