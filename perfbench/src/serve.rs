//! The open-loop `lbm-serve` workload: `ArrivalProcess` specs released on
//! a seeded Poisson schedule from one generator thread, each job timed from
//! when it was due. Before the fleet window the same process times every
//! pattern on the duct sharded over two devices, where halo exchange and
//! the interconnect do real work.

use crate::host::{self, peak_rss_mb};
use crate::ledger::{self, PATTERNS};
use crate::rigs::{check_against_reference, ms, short_run, spec, Rigs};
use crate::stats::{median, quantile, spans, tail, Quantile, MIN_BEYOND_TAIL};
use crate::workloads::DUCT;
use crate::Report;
use lbm_lattice::D3Q19;
use lbm_serve::{
    solo_checksum, ArrivalProcess, JobId, JobResult, JobSpec, JobState, Pattern, Priority,
    Scenario, Serve, ServeConfig,
};
use obs::{EventKind, Obs};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Mean arrival rate in jobs per second, fixed for every host: about 0.37
/// of what one executor completes closed loop (~800 jobs/s) on the 2-core
/// reference host. Half of capacity left the p50s too unsteady; see
/// RATIONALE.md.
const RATE_PER_S: f64 = 300.0;
/// Fleet set-ups timed per run (median reported).
const SETUP_REPS: usize = 3;
/// Jobs run and drained before the window, so lazy set-up is done.
const WARMUP_JOBS: usize = 64;
/// Share of `--seconds` spent on the open-loop fleet; the rest, first,
/// times the sharded rigs.
const FLEET_SHARE: f64 = 0.5;

/// One scheduled submission.
struct Arrival {
    /// Seconds after the window opens.
    due_s: f64,
    spec: JobSpec,
}

/// splitmix64: the inter-arrival clock, independent of the spec stream.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Jobs of each priority class a traced run's untraced fleet window must
/// hold, so that the class p99 has `MIN_BEYOND_TAIL` samples beyond it.
const TAIL_JOBS: usize = 100 * MIN_BEYOND_TAIL;

/// The open-loop schedule: `ArrivalProcess::new(seed, ..)` specs released
/// at exponential inter-arrival times of mean `1/rate`, until `horizon_s`
/// and until each priority class has at least `min_each` jobs.
fn schedule(seed: u64, rate: f64, horizon_s: f64, min_each: usize) -> Vec<Arrival> {
    let mut clock = SplitMix(seed ^ 0x0a11_c0de_5eed_f00d);
    let mut t = 0.0;
    let (mut interactive, mut batch) = (0, 0);
    let mut out = Vec::new();
    // Unbounded: the horizon and the class counts end the loop.
    for spec in ArrivalProcess::new(seed, usize::MAX) {
        t += -clock.unit().ln() / rate;
        if t >= horizon_s && interactive >= min_each && batch >= min_each {
            break;
        }
        match spec.priority {
            Priority::Interactive => interactive += 1,
            Priority::Batch => batch += 1,
        }
        out.push(Arrival { due_s: t, spec });
    }
    out
}

/// One submission as the generator made it.
struct Sent {
    id: Option<JobId>,
    /// How late the submit call started, relative to its due time.
    lag_ms: f64,
    submit_us: f64,
}

/// Release `sched` open loop: each submit waits for its due time but never
/// for an earlier job.
fn feed(serve: &Serve, sched: &[Arrival], r: &mut Report) -> Vec<Sent> {
    let t0 = Instant::now();
    sched
        .iter()
        .map(|a| {
            let due = t0 + Duration::from_secs_f64(a.due_s);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let t = Instant::now();
            let res = serve.submit(a.spec.clone());
            let submit_us = t.elapsed().as_secs_f64() * 1e6;
            r.check(res.is_ok(), || {
                format!("submit refused: {}", res.as_ref().unwrap_err())
            });
            Sent {
                id: res.ok(),
                lag_ms: t.saturating_duration_since(due).as_secs_f64() * 1e3,
                submit_us,
            }
        })
        .collect()
}

/// Solo-run oracle checksums, memoised by physics key.
#[derive(Default)]
struct Oracle(HashMap<(Scenario, Pattern, u64, u64, usize), u64>);

impl Oracle {
    fn checksum(&mut self, spec: &JobSpec) -> u64 {
        *self
            .0
            .entry(spec.physics_key())
            .or_insert_with(|| solo_checksum(spec))
    }
}

/// Check one finished job against its spec and oracle checksum.
fn verify_job(
    r: &mut Report,
    spec: &JobSpec,
    state: Option<JobState>,
    result: Option<&JobResult>,
    oracle: u64,
) {
    r.check(state == Some(JobState::Completed), || {
        format!("job ended {state:?}, not Completed")
    });
    let Some(res) = result else {
        r.check(false, || "completed job has no result".into());
        return;
    };
    r.check(res.steps == spec.steps, || {
        format!("job ran {} of {} steps", res.steps, spec.steps)
    });
    r.check(res.checksum == oracle, || {
        format!(
            "job {:?} checksum {:#x} != solo {oracle:#x}",
            res.id, res.checksum
        )
    });
}

/// Latencies from due time, split by class.
#[derive(Default)]
struct Latencies {
    interactive: Vec<f64>,
    batch: Vec<f64>,
    evictions: u64,
    jobs: usize,
}

fn collect(
    serve: &Serve,
    sched: &[Arrival],
    sent: &[Sent],
    oracle: &mut Oracle,
    r: &mut Report,
) -> Latencies {
    let mut out = Latencies::default();
    for (a, s) in sched.iter().zip(sent) {
        let Some(id) = s.id else { continue };
        let state = serve.status(id).map(|st| st.state);
        let result = serve.result(id);
        verify_job(r, &a.spec, state, result.as_ref(), oracle.checksum(&a.spec));
        if let Some(res) = result {
            let latency = s.lag_ms + res.latency_ms;
            match a.spec.priority {
                Priority::Interactive => out.interactive.push(latency),
                Priority::Batch => out.batch.push(latency),
            }
            out.evictions += res.evictions;
            out.jobs += 1;
        }
    }
    out
}

/// The p99 of `values`. Every traced window holds enough jobs (see
/// `TAIL_JOBS`) that the tail always has `MIN_BEYOND_TAIL` samples beyond
/// it; a refused tail is a bug in the benchmark.
fn p99(name: &str, values: &[f64]) -> Quantile {
    tail(values, 0.99).unwrap_or_else(|why| panic!("{name}: {why}"))
}

fn p50(values: &[f64]) -> Quantile {
    median(values).unwrap_or(Quantile {
        value: 0.0,
        samples: 0,
    })
}

/// `serve.*` layer metrics from a traced fleet's hub.
fn fleet_layers(hub: &Obs, executors: usize, wall_ms: f64, r: &mut Report) {
    let sp = spans(&hub.tracer.events());
    let durations = |name: &str| -> Vec<f64> {
        sp.iter()
            .filter(|s| s.cat == "serve" && s.name == name)
            .map(|s| (s.end_us - s.start_us) as f64 / 1e3)
            .collect()
    };
    let slices = durations("slice");
    for (name, v) in [
        ("serve.slice_ms.p50", &slices),
        ("serve.resume_ms.p50", &durations("resume")),
        ("serve.evict_ms.p50", &durations("evict")),
    ] {
        let q = p50(v);
        r.metric(name, q.value, "ms", q.samples);
    }
    let busy: f64 = slices.iter().sum();
    r.metric(
        "serve.busy_frac",
        busy / (executors as f64 * wall_ms),
        "ratio",
        slices.len(),
    );

    let mut admit: HashMap<u64, u64> = HashMap::new();
    let mut waits = Vec::new();
    for e in hub.events.snapshot() {
        let Some(job) = e.job else { continue };
        match e.kind {
            EventKind::Admit => {
                admit.insert(job, e.ts_us);
            }
            EventKind::Slice => {
                if let Some(t) = admit.remove(&job) {
                    waits.push((e.ts_us - t) as f64 / 1e3);
                }
            }
            _ => {}
        }
    }
    let q = p50(&waits);
    r.metric("serve.queue_wait_ms.p50", q.value, "ms", q.samples);
    let q = p99("serve.queue_wait_ms.p99", &waits);
    r.metric("serve.queue_wait_ms.p99", q.value, "ms", q.samples);
}

/// Every pattern on the duct over two simulated devices. The twist
/// pattern has no sharded driver, so it runs on one device.
fn sharded_specs() -> Vec<JobSpec> {
    PATTERNS
        .map(|p| spec(DUCT, p, if p == Pattern::MrTwist { 1 } else { 2 }))
        .to_vec()
}

/// Checks of the sharded rigs. Over the whole timed trajectory: health,
/// and the twins, which tie sharded `aa-st`, `sparse-st` and `sparse-mr`
/// to sharded `st` and `mr-p`, and sharded `mr-p` to single-device
/// `mr-twist`. The patterns without a single-device twin, `st` and `mr-r`,
/// are replayed on fresh builds for `CHECK_STEPS`: sharded equals
/// single-device, and `st` stays on the reference solver.
fn check_sharded(rigs: &Rigs, r: &mut Report) {
    rigs.check_health(r);
    rigs.check_twins(r);
    for label in ["st", "mr-r"] {
        let rig = rigs.get(label);
        let mut solo_spec = rig.spec.clone();
        solo_spec.devices = 1;
        let sharded = short_run(&rig.spec, rigs.threads);
        let solo = short_run(&solo_spec, rigs.threads);
        let (a, b) = (sharded.field_checksum(), solo.field_checksum());
        r.check(a == b, || {
            format!("{label}: FNV {a:#x} != single-device {b:#x}")
        });
        r.check(sharded.halo_retries() == 0, || {
            format!("{label}: {} halo retries", sharded.halo_retries())
        });
    }
    check_against_reference::<D3Q19>(r, &rigs.get("st").spec, rigs.threads, 1e-12);
}

pub fn serve_open(seed: u64, seconds: f64, trace: bool) -> (Report, usize) {
    let nproc = host::nproc();
    let executors = (nproc - 1).max(1);
    let cfg = ServeConfig {
        executors,
        obs: None,
        ..ServeConfig::default()
    };
    let mut r = Report::default();
    let mut oracle = Oracle::default();

    // Set-up: the sharded rigs, then the fleet, repeated and timed:
    // start-up plus a drained warm-up batch, so threads exist and lazy
    // set-up is done. The last fleet is kept.
    let mut rigs = Rigs::build(sharded_specs(), nproc);
    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..SETUP_REPS {
        drop(fleet.take());
        let t = Instant::now();
        let f = Serve::start(cfg.clone());
        for spec in ArrivalProcess::new(seed.wrapping_add(1), WARMUP_JOBS) {
            let res = f.submit(spec);
            r.check(res.is_ok(), || "warm-up submit refused".into());
        }
        f.drain();
        setups.push(ms(t));
        fleet = Some(f);
    }
    let fleet = fleet.expect("SETUP_REPS >= 1");
    let setup_s = p50(&setups).value / 1e3 + rigs.setup_s;

    let fleet_s = seconds * FLEET_SHARE;
    let rigs_s = seconds - fleet_s;
    if !trace {
        rigs.run(rigs_s, false);
        rigs.report_mflups(&mut r);
    } else {
        rigs.run(rigs_s / 2.0, false);
        rigs.attach_hubs();
        rigs.run(rigs_s / 2.0, true);
        ledger::solver_layers(&mut rigs, &mut r);
    }
    // The rigs are checked and dropped before the fleet window, so the
    // fleet runs in a process that holds nothing else.
    let rig_pairs = rigs.pairs();
    check_sharded(&rigs, &mut r);
    drop(rigs);

    if !trace {
        let sched = schedule(seed, RATE_PER_S, fleet_s, 0);
        let sent = feed(&fleet, &sched, &mut r);
        fleet.drain();
        let rss = peak_rss_mb();
        let lat = collect(&fleet, &sched, &sent, &mut oracle, &mut r);
        let q = p50(&lat.interactive);
        r.metric("interactive_ms.p50", q.value, "ms", q.samples);
        let q = p50(&lat.batch);
        r.metric("batch_ms.p50", q.value, "ms", q.samples);
        r.metric("setup_s", setup_s, "s", SETUP_REPS);
        r.metric("peak_rss_mb", rss, "MB", 1);
    } else {
        // Untraced half: the fleet as measured end to end.
        let sched = schedule(seed, RATE_PER_S, fleet_s / 2.0, TAIL_JOBS);
        let sent = feed(&fleet, &sched, &mut r);
        fleet.drain();
        let lat = collect(&fleet, &sched, &sent, &mut oracle, &mut r);
        // Traced half: the same schedule on a fresh fleet with a hub.
        let hub = Obs::shared();
        let traced = Serve::start(ServeConfig {
            obs: Some(hub.clone()),
            ..cfg.clone()
        });
        let t = Instant::now();
        let sent_t = feed(&traced, &sched, &mut r);
        traced.drain();
        let wall_ms = ms(t);
        let lat_t = collect(&traced, &sched, &sent_t, &mut oracle, &mut r);
        drop(traced);

        let submit: Vec<f64> = sent.iter().map(|s| s.submit_us).collect();
        let q = p50(&submit);
        r.metric("serve.submit_us.p50", q.value, "us", q.samples);
        let q = p99("serve.submit_us.p99", &submit);
        r.metric("serve.submit_us.p99", q.value, "us", q.samples);
        fleet_layers(&hub, executors, wall_ms, &mut r);
        r.metric(
            "serve.evictions_per_job",
            lat.evictions as f64 / lat.jobs.max(1) as f64,
            "count",
            lat.jobs,
        );
        for (name, v) in [
            ("serve.interactive_ms.p99", &lat.interactive),
            ("serve.batch_ms.p99", &lat.batch),
        ] {
            let q = p99(name, v);
            r.metric(name, q.value, "ms", q.samples);
        }
        let lag: Vec<f64> = sent.iter().map(|s| s.lag_ms).collect();
        let q = p99("bench.gen_lag_ms.p99", &lag);
        r.metric("bench.gen_lag_ms.p99", q.value, "ms", q.samples);
        let q = quantile(&lag, 1.0).unwrap_or(Quantile {
            value: 0.0,
            samples: 0,
        });
        r.metric("bench.gen_lag_ms.max", q.value, "ms", q.samples);
        r.metric(
            "obs.overhead_frac",
            p50(&lat_t.interactive).value / p50(&lat.interactive).value - 1.0,
            "ratio",
            lat_t.interactive.len(),
        );
        r.metric(
            "bench.samples",
            (sent.len() + sent_t.len() + rig_pairs) as f64,
            "count",
            1,
        );
    }
    drop(fleet);
    (r, nproc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(s: &[Arrival]) -> Vec<String> {
        s.iter()
            .map(|a| format!("{:?} {:?}", a.due_s.to_bits(), a.spec))
            .collect()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_differs() {
        let a = schedule(7, 300.0, 2.0, 0);
        let b = schedule(7, 300.0, 2.0, 0);
        assert!(a.len() > 300, "rate 300/s over 2 s gave {}", a.len());
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let c = schedule(8, 300.0, 2.0, 0);
        assert_ne!(fingerprint(&a), fingerprint(&c));
        assert!(a.windows(2).all(|w| w[0].due_s < w[1].due_s));
        assert!(a.iter().all(|x| x.due_s < 2.0));
    }

    #[test]
    fn schedule_runs_on_until_each_class_fills_its_tail() {
        let short = schedule(7, 300.0, 0.5, 0);
        let long = schedule(7, 300.0, 0.5, TAIL_JOBS);
        let count = |s: &[Arrival], p: Priority| s.iter().filter(|a| a.spec.priority == p).count();
        assert!(count(&short, Priority::Batch) < TAIL_JOBS);
        for p in [Priority::Interactive, Priority::Batch] {
            assert!(count(&long, p) >= TAIL_JOBS, "{p:?}: {}", count(&long, p));
            assert!(tail(&vec![0.0; count(&long, p)], 0.99).is_ok());
        }
        // The longer schedule extends the shorter one.
        assert_eq!(fingerprint(&short), fingerprint(&long[..short.len()]));
    }

    #[test]
    fn wrong_checksum_raises_error_rate() {
        let spec = JobSpec::shear_2d("t", 16, 8, 4);
        let right = solo_checksum(&spec);
        let result = |checksum| JobResult {
            id: JobId(1),
            checksum,
            steps: 4,
            latency_ms: 1.0,
            evictions: 0,
            rollbacks: 0,
        };
        let mut ok = Report::default();
        verify_job(
            &mut ok,
            &spec,
            Some(JobState::Completed),
            Some(&result(right)),
            right,
        );
        assert_eq!(ok.error_rate(), 0.0);
        let mut bad = Report::default();
        verify_job(
            &mut bad,
            &spec,
            Some(JobState::Completed),
            Some(&result(right ^ 1)),
            right,
        );
        assert!(bad.error_rate() > 0.0);
        assert_eq!(bad.failed, 1);
    }
}
