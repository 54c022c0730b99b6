//! The repo benchmark. See README.md for what it measures and why.
//!
//! ```text
//! sf-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!              [--quick] [--backend <registry name>] [--detail <file>]
//!              [--round <k>]
//! sf-benchmark [--runs <n>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!              [--quick] [--backend <name>] [--out <file>]
//! sf-benchmark compare <A.json> <B.json>
//! ```
//!
//! The first form runs one workload and prints its result as the last line of
//! standard output: a traced run in this process, an untraced one with every
//! round in a child process of its own (`--round`). The second runs every
//! workload, each in a child process of the first form, `--runs` times over,
//! prints every metric and writes a results file for `compare`.

mod adapter;
mod gen;
mod hist;
mod host;
mod json;
mod ladder;
mod oracle;
mod report;
mod sched;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use json::Json;
use report::{Definition, RunResult};
use workload::{median, Harness, Plan, Round, Spec, MOVE, NOOP, READ, ROUNDS, SCAN, SPECS, UPDATE};

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    /// `None`: both kinds of run (only meaningful without `--workload`).
    trace: Option<bool>,
    quick: bool,
    backend: Option<String>,
    /// Run only this round of the run, in this process (what an untraced
    /// run starts once per round).
    round: Option<u64>,
    detail: Option<PathBuf>,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String], definition: &Definition) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: definition.run_seconds,
        trace: None,
        quick: false,
        backend: None,
        round: None,
        detail: None,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: {text} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?.clamp(1, 600),
            "--trace" => parsed.trace = Some(number(value()?)? != 0),
            "--quick" => parsed.quick = true,
            "--backend" => parsed.backend = Some(value()?.clone()),
            "--round" => parsed.round = Some(number(value()?)?),
            "--detail" => parsed.detail = Some(PathBuf::from(value()?)),
            "--runs" => parsed.runs = number(value()?)?.clamp(1, 1000),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// `benchmark/out/`: everything a run writes goes under it.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Client threads: `min(2, nproc)`.
fn mutator_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn rss_peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The directory this run's `+wal` instances log under; removed with the run,
/// however it ends.
struct WalRoot(PathBuf);

impl WalRoot {
    fn create(path: PathBuf) -> Result<WalRoot, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {path:?}: {e}"))?;
        Ok(WalRoot(path))
    }
}

impl Drop for WalRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

type Values = Vec<(String, f64, Vec<f64>)>;

/// A run's value for a per-round quantity: the median over its rounds.
fn over_rounds(
    name: &str,
    rounds: &[Round],
    of: impl Fn(&Round) -> f64,
) -> (String, f64, Vec<f64>) {
    let values: Vec<f64> = rounds.iter().map(of).collect();
    (name.to_string(), median(&values), values)
}

fn ratio(numerator: u64, denominator: u64) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// The workload-counter half of the per-layer metrics.
fn layer_metrics(rounds: &[Round]) -> Values {
    let metric = |name: &str, of: &dyn Fn(&Round) -> f64| over_rounds(name, rounds, of);
    vec![
        metric("stm.commits_per_op", &|r| ratio(r.counters.commits, r.ops)),
        metric("stm.background_commits_per_op", &|r| {
            (r.counters.commits as f64 - r.ops as f64) / r.ops as f64
        }),
        metric("stm.reads_per_op", &|r| ratio(r.counters.tx_reads, r.ops)),
        metric("stm.abort_ratio", &|r| {
            ratio(r.counters.aborts, r.counters.commits + r.counters.aborts)
        }),
        metric("stm.aborts_per_mop", &|r| {
            ratio(r.counters.aborts, r.ops) * 1e6
        }),
        metric("stm.abort_read_validation_share", &|r| {
            ratio(r.counters.abort_read_validation, r.counters.aborts)
        }),
        metric("stm.abort_lock_conflict_share", &|r| {
            ratio(r.counters.abort_lock_conflict, r.counters.aborts)
        }),
        metric("stm.abort_combiner_share", &|r| {
            ratio(r.counters.abort_combiner, r.counters.aborts)
        }),
        metric("stm.abort_scan_validation_share", &|r| {
            ratio(r.counters.abort_scan_validation, r.counters.aborts)
        }),
        metric("stm.combined_commit_share", &|r| {
            ratio(r.counters.combined_commits, r.counters.commits)
        }),
        metric("stm.max_op_reads", &|r| r.counters.max_reads_per_op as f64),
        metric("ops.effective_update_share", &|r| {
            ratio(r.effective_updates, r.attempted_updates)
        }),
        metric("ops.noop_update_p50_ns", &|r| r.quantiles[NOOP][0]),
        metric("ops.read_p99_ns", &|r| r.quantiles[READ][1]),
        metric("ops.scan_p99_ns", &|r| r.quantiles[SCAN][1]),
        metric("ops.move_p50_ns", &|r| r.quantiles[MOVE][0]),
        metric("persist.records_per_update", &|r| {
            ratio(r.counters.wal_records, r.effective_updates)
        }),
        metric("persist.bytes_per_update", &|r| {
            ratio(r.counters.wal_bytes, r.effective_updates)
        }),
        // A user write is one key and one value: 16 bytes.
        metric("persist.log_bytes_per_user_byte", &|r| {
            ratio(r.counters.wal_bytes, r.effective_updates * 16)
        }),
        metric("persist.batch_mean_records", &|r| {
            ratio(r.counters.wal_records, r.counters.wal_batches)
        }),
        metric("persist.fsyncs_per_kupdate", &|r| {
            ratio(r.counters.wal_batches, r.effective_updates) * 1e3
        }),
        metric("persist.fsync_p50_ns", &|r| r.counters.fsync_p50_ns),
        metric("persist.fsync_p99_ns", &|r| r.counters.fsync_p99_ns),
        metric("persist.sync_wait_p50_ns", &|r| r.counters.sync_wait_p50_ns),
        metric("persist.checkpoints", &|r| {
            r.counters.wal_checkpoints as f64
        }),
        metric("persist.max_ring_depth", &|r| {
            r.counters.wal_max_ring_depth as f64
        }),
        metric("persist.recover_ms", &|r| {
            r.recover.map_or(0.0, |(ms, _)| ms)
        }),
        metric("persist.recover_records_per_s", &|r| {
            r.recover
                .map_or(0.0, |(ms, records)| records as f64 / (ms / 1e3))
        }),
        metric("core.hot_avg_depth", &|r| r.hot_avg_depth),
    ]
}

/// How many rounds a run has and how big they are. A full run has ROUNDS
/// rounds whose measured phases add up to `--seconds`. `--quick` runs 2
/// rounds of 1/20 the count. A traced run spends 40% of the time on 4
/// half-length rounds (two pairs of one without and one with operation
/// spans) and the rest on the ladder and the baseline.
fn plan<'a>(args: &'a Args, spec: &'a Spec, wal_root: &'a Path) -> (Plan<'a>, u64) {
    let traced = args.trace.unwrap_or(false);
    let quick_divisor = if args.quick { 20 } else { 1 };
    let round_divisor = if traced { 2 } else { 1 };
    let rounds = match (args.quick, traced) {
        (false, false) => ROUNDS,
        (false, true) => 4,
        (true, _) => 2,
    };
    let plan = Plan {
        spec,
        backend: args.backend.as_deref().unwrap_or(spec.backend),
        seed: args.seed,
        ops_per_mutator: (spec.ops_per_mutator_second * args.seconds
            / ROUNDS
            / quick_divisor
            / round_divisor)
            .max(100),
        budget: Duration::from_secs_f64(args.seconds as f64 / (ROUNDS * round_divisor) as f64),
        wal_root,
    };
    (plan, rounds)
}

/// The workload's name, or `<workload>@<backend>` under `--backend`.
fn label(args: &Args, spec: &Spec) -> String {
    match &args.backend {
        Some(name) => format!("{}@{name}", spec.name),
        None => spec.name.to_string(),
    }
}

fn precheck(args: &Args, plan: Plan<'_>) -> Result<workload::Checks, String> {
    workload::precheck(
        plan,
        workload::PRECHECK_OPS / if args.quick { 20 } else { 1 },
    )
}

/// This binary again, for one workload, writing its results to `detail`.
fn child(args: &Args, workload: &str, seed: u64, traced: bool, detail: &Path) -> Command {
    let mut child = Command::new(std::env::current_exe().expect("this binary's path"));
    child
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--detail")
        .arg(detail);
    if args.quick {
        child.arg("--quick");
    }
    if let Some(backend) = &args.backend {
        child.args(["--backend", backend]);
    }
    child
}

/// Run `child` to its end and read the results file it wrote.
fn finish(mut child: Command, detail: &Path) -> Result<(bool, Json), String> {
    let status = child
        .status()
        .map_err(|e| format!("starting {child:?}: {e}"))?;
    let text = std::fs::read_to_string(detail)
        .map_err(|e| format!("{child:?}: no result ({status}): {e}"))?;
    let _ = std::fs::remove_file(detail);
    Ok((status.success(), Json::parse(&text)?))
}

/// Run one workload: an untraced run round by round in child processes, a
/// traced run or a single round (`--round`) in this one.
fn run_workload(args: &Args, spec: &Spec, definition: &Definition) -> Result<RunResult, String> {
    if args.trace == Some(true) || args.round.is_some() {
        run_in_process(args, spec, definition)
    } else {
        run_round_by_round(args, spec, definition)
    }
}

/// An untraced run: the pre-check here, then every round in a process of its
/// own, one after the other. Where a process's pages land in memory and
/// which allocator arena each of its threads gets is drawn once per process
/// and moved every round of a run the same way (`point-mixed` by 6%, the
/// peak resident set of `scan-move-sharded` by 2 MiB of 22); drawn once per
/// round, the median over the rounds takes it out (NOISE.md). A round's
/// `rss_peak_mb` is its process's `VmHWM` at exit.
fn run_round_by_round(
    args: &Args,
    spec: &Spec,
    definition: &Definition,
) -> Result<RunResult, String> {
    let out = out_dir();
    let wal_root = WalRoot::create(out.join(format!("wal-{}", std::process::id())))?;
    let (plan, rounds) = plan(args, spec, &wal_root.0);
    let mut checks = precheck(args, plan)?;
    let detail = out.join(format!("round-{}.json", std::process::id()));
    let mut host = Vec::new();
    let mut values: Values = definition
        .end_to_end
        .iter()
        .map(|def| (def.name.clone(), 0.0, Vec::new()))
        .collect();
    for round in 0..rounds {
        let mut child = child(args, spec.name, args.seed, false, &detail);
        child
            .args(["--round", &round.to_string()])
            .stdout(Stdio::null());
        let (_, result) = finish(child, &detail)?;
        let number = |json: Option<&Json>| json.and_then(Json::as_f64).ok_or("a round's results");
        checks.add(workload::Checks {
            attempted: number(result.get("ops_attempted"))? as u64,
            failed: number(result.get("ops_failed"))? as u64,
        });
        host.extend(
            result
                .get("host")
                .map(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .cloned(),
        );
        for (name, _, rounds) in &mut values {
            let metric = result.get("metrics").and_then(|m| m.get(name));
            rounds.push(number(metric.and_then(|m| m.get("value")))?);
        }
    }
    for (_, value, rounds) in &mut values {
        *value = median(rounds);
    }
    Ok(RunResult {
        workload: label(args, spec),
        seed: args.seed,
        traced: false,
        ops_attempted: checks.attempted,
        ops_failed: checks.failed,
        host,
        metrics: RunResult::label(values, &definition.end_to_end)?,
    })
}

/// A traced run, or the one round `--round` names, in this process.
fn run_in_process(args: &Args, spec: &Spec, definition: &Definition) -> Result<RunResult, String> {
    let traced = args.trace.unwrap_or(false);
    // Allocated before any instance exists, so they are not in the program's
    // share of `rss_peak_mb`.
    let mut harness = Harness::new(mutator_count());
    let mut probe = host::Probe::start(mutator_count())?;

    let label = label(args, spec);
    let out = out_dir();
    let wal_root = WalRoot::create(out.join(format!("wal-{}", std::process::id())))?;
    let wal_root = wal_root.0.as_path();
    let (plan, rounds) = plan(args, spec, wal_root);
    let quick_divisor = if args.quick { 20 } else { 1 };

    // For the whole run, not per round: threads that come and go change
    // which allocator arena every later thread gets.
    let keep_awake = spec
        .mutators_block
        .then(|| sched::KeepAwake::start(mutator_count()));
    let (rounds, mut checks) = match args.round {
        Some(round) => (round..round + 1, workload::Checks::default()),
        None => (0..rounds, precheck(args, plan)?),
    };
    let mut tracer = traced.then(trace::Tracer::new);
    let mut results = Vec::new();
    let mut before = probe.read()?;
    for round in rounds {
        let trace_ops = traced && round % 2 == 1;
        let mut result = workload::run_round(
            plan,
            round,
            &mut harness,
            tracer.as_mut().map(|t| (t, trace::ROOT)),
            trace_ops,
        )?;
        eprintln!(
            "{label} round {round}: setup {:.3} s, {} ops in {:.3} s, {} of {} checks failed",
            result.setup_s,
            result.ops,
            result.wall_s,
            result.checks.failed,
            result.checks.attempted
        );
        let after = probe.read()?;
        result.host = host::Reading::between(before, after);
        before = after;
        checks.add(result.checks);
        results.push(result);
    }
    drop(keep_awake);
    drop(probe);

    // End-to-end times are scaled to the nominal host, round by round
    // (host.rs); per-layer numbers are as measured, beside the readings.
    // Time spent waiting for the disk does not follow the processor: where
    // every update sleeps on a group commit, only reads and scans are scaled.
    let slow = |r: &Round| r.host.factor(spec.host_exponents);
    let waits = |r: &Round| if spec.mutators_block { 1.0 } else { slow(r) };
    let values: Values = match tracer.as_mut() {
        None => vec![
            over_rounds("throughput_ops_s", &results, |r| r.throughput() * waits(r)),
            over_rounds("read_p50_ns", &results, |r| r.quantiles[READ][0] / slow(r)),
            over_rounds("update_p50_ns", &results, |r| {
                r.quantiles[UPDATE][0] / waits(r)
            }),
            over_rounds("update_p99_ns", &results, |r| {
                r.quantiles[UPDATE][1] / waits(r)
            }),
            over_rounds("scan_p50_ns", &results, |r| r.quantiles[SCAN][0] / slow(r)),
            over_rounds("setup_s", &results, |r| r.setup_s / waits(r)),
            ("rss_peak_mb".to_string(), rss_peak_mib()?, Vec::new()),
        ],
        Some(tracer) => {
            let mut values = layer_metrics(&results);
            values.push(over_rounds("host.core_ns", &results, |r| r.host.core_ns));
            values.push(over_rounds("host.memory_ns", &results, |r| {
                r.host.memory_ns
            }));
            // Rounds come in (plain, spanned) pairs; a pair's rounds are
            // neighbours in time, so the host's drift mostly cancels inside
            // it. This is what sampling spans costs, not the difference to
            // the `--trace 0` run, which has other rounds at another time.
            let throughputs: Vec<f64> = results.iter().map(Round::throughput).collect();
            let overheads: Vec<f64> = throughputs
                .chunks_exact(2)
                .map(|pair| (pair[0] - pair[1]) / pair[0] * 100.0)
                .collect();
            values.push((
                "trace.overhead_pct".to_string(),
                overheads.iter().sum::<f64>() / overheads.len() as f64,
                throughputs,
            ));
            // Measured once in the run, not per round.
            let mut once =
                |name: &str, value: f64| values.push((name.to_string(), value, Vec::new()));

            let (gen_ns, clock_ns) = workload::harness_costs(spec.mix, args.seed);
            once("harness.gen_ns_per_op", gen_ns);
            once("harness.clock_ns", clock_ns);

            // The paper's comparison: the red-black tree on the identical
            // skew-contended stream (same seed, same round, same size).
            let skew = &SPECS[1];
            let baseline_plan = Plan {
                spec: skew,
                backend: "rbtree",
                ops_per_mutator: (skew.ops_per_mutator_second * args.seconds
                    / ROUNDS
                    / quick_divisor
                    / 2)
                .max(100),
                ..plan
            };
            let span = tracer.open(trace::ROOT, "baseline.rbtree");
            let baseline = workload::run_round(
                baseline_plan,
                0,
                &mut harness,
                Some((&mut *tracer, span)),
                false,
            )?;
            tracer.close(span);
            checks.add(baseline.checks);
            once(
                "ladder.baselines.rbtree_throughput_ops_s",
                baseline.throughput(),
            );
            once(
                "ladder.baselines.rbtree_aborts_per_mop",
                ratio(baseline.counters.aborts, baseline.ops) * 1e6,
            );
            once(
                "ladder.baselines.rbtree_update_p99_ns",
                baseline.quantiles[UPDATE][1],
            );

            let scale = if args.quick {
                ladder::Scale::quick()
            } else {
                ladder::Scale::full()
            };
            for (name, value) in ladder::run(args.seed, scale, wal_root, tracer)? {
                once(&name, value);
            }

            let path = out.join(format!("trace-{label}.json"));
            tracer
                .write(&path, &label)
                .map_err(|e| format!("writing {path:?}: {e}"))?;
            eprintln!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            );
            values
        }
    };
    let defs = if traced {
        &definition.per_layer
    } else {
        &definition.end_to_end
    };
    Ok(RunResult {
        workload: label,
        seed: args.seed,
        traced,
        ops_attempted: checks.attempted,
        ops_failed: checks.failed,
        host: results
            .iter()
            .map(|r| report::host_json(r.host, r.throughput(), slow(r)))
            .collect(),
        metrics: RunResult::label(values, defs)?,
    })
}

fn find_spec(name: &str) -> Result<&'static Spec, String> {
    SPECS.iter().find(|spec| spec.name == name).ok_or_else(|| {
        let known: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })
}

/// Run every workload `--runs` times, each run in a child process, and write
/// the results file.
fn run_all(args: &Args) -> Result<bool, String> {
    let out = out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {out:?}: {e}"))?;
    let detail = out.join(format!("detail-{}.json", std::process::id()));
    let mut runs = Vec::new();
    let mut all_correct = true;
    for run in 0..args.runs {
        for spec in &SPECS {
            for traced in [false, true] {
                if args.trace.is_some_and(|only| only != traced) {
                    continue;
                }
                let child = child(args, spec.name, args.seed + run, traced, &detail);
                let (succeeded, result) = finish(child, &detail)?;
                all_correct &= succeeded && result.get("correct") == Some(&Json::Bool(true));
                runs.push(result);
            }
        }
    }
    let file = Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("mutators", Json::Num(mutator_count() as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("quick", Json::Bool(args.quick)),
        (
            "backend",
            args.backend.as_ref().map_or(Json::Null, Json::str),
        ),
        ("flush_policy", Json::str(adapter::FLUSH_POLICY)),
        ("runs", Json::Arr(runs)),
    ]);
    let path = args.out.clone().unwrap_or_else(|| out.join("results.json"));
    write_file(&path, &format!("{file}\n"))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn read_json(path: &str) -> Result<Json, String> {
    Json::parse(&std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?)
}

fn real_main() -> Result<bool, String> {
    // Before any thread exists: the program reads its tuning from SF_*.
    adapter::scrub_env();
    let definition = Definition::load();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [probe, threads] = argv.as_slice() {
        if probe == "host-probe" {
            host::serve(threads.parse().map_err(|_| "host-probe <threads>")?);
            return Ok(true);
        }
    }
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            return Err("usage: compare <A.json> <B.json>".to_string());
        };
        return Ok(report::compare(&read_json(a)?, &read_json(b)?, &definition)? == 0);
    }
    let args = parse_args(&argv, &definition)?;
    let Some(name) = &args.workload else {
        return run_all(&args);
    };
    let result = run_workload(&args, find_spec(name)?, &definition)?;
    result.print_table();
    if let Some(path) = &args.detail {
        write_file(path, &format!("{}\n", result.detail()))?;
    }
    println!("{}", result.contract_line());
    Ok(result.correct())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("writing {path:?}: {e}"))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("sf-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_the_workloads_the_binary_runs() {
        assert_eq!(
            Definition::load().workloads,
            SPECS.iter().map(|s| s.name).collect::<Vec<_>>()
        );
    }
}
