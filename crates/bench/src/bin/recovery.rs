//! Recovery harness: replay throughput vs. log length, plus a real
//! crash-recovery smoke used by CI.
//!
//! **Sweep mode** (default): for each length in `SF_RECOVERY_LENGTHS`
//! (default `1000 5000 20000` records), write that many effective mutations
//! through a durable optimized tree (buffered log — the sweep measures
//! *replay*, not fsync), then measure `sf_persist::recover` over the
//! directory. One row (and, with `SF_JSON=1`, one JSON line) per length;
//! set `SF_RECOVERY_CKPT=1` to checkpoint at the halfway point and measure
//! checkpoint-accelerated recovery instead.
//!
//! **Crash smoke** (`SF_RECOVERY_SMOKE=1`): for a plain and a sharded
//! durable backend, spawn this same binary as a *writer child*
//! (`SF_RECOVERY_ROLE=writer`) that inserts keys through the registry's
//! `+wal` backend and prints `ACK <key>` after each durably acknowledged
//! insert; SIGKILL it mid-stream; recover the directory in the parent and
//! verify every acknowledged key survived. Exits non-zero on any loss —
//! this is the "commit returned, then the machine died" contract, tested
//! with an actual killed process.
//!
//! The smoke's second phase is the **cross-shard move hammer**
//! (`SF_RECOVERY_ROLE=mover`): the child ping-pongs unique values between
//! key pairs that hash to *different* shards of a `sharded2+wal` backend,
//! acknowledging each durable move; the parent SIGKILLs it mid-hammer and
//! verifies after `recover_sharded` that every value sits at **exactly one**
//! of its pair's keys — a crash landing between the two shard logs' appends
//! must never surface a duplicated or vanished entry. This drill is the
//! regression proof for the two-phase move-intent protocol: without intents
//! it reliably catches the duplicate window within a few rounds.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use sf_bench::json_enabled;
use sf_persist::{
    recover, recover_sharded, sharded_spec_friendly, DurableMap, TempDir, WalOptions,
};
use sf_stm::{Stm, StmConfig};
use sf_tree::{FindSpec, OptSpecFriendlyTree, OptimizedFind, PortableFind, TxMap};
use sf_workloads::backend::maintenance_config;
use sf_workloads::Backend;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    match std::env::var("SF_RECOVERY_ROLE").as_deref() {
        Ok("writer") => writer_child(),
        Ok("mover") => mover_child(),
        _ if std::env::var("SF_RECOVERY_SMOKE").as_deref() == Ok("1") => crash_smoke(),
        _ => replay_sweep(),
    }
}

/// Sweep mode: replay throughput as a function of log length.
fn replay_sweep() {
    let lengths: Vec<u64> = std::env::var("SF_RECOVERY_LENGTHS")
        .ok()
        .map(|s| {
            s.split_whitespace()
                .filter_map(|t| t.parse().ok())
                .collect()
        })
        .filter(|v: &Vec<u64>| !v.is_empty())
        .unwrap_or_else(|| vec![1_000, 5_000, 20_000]);
    let checkpoint_halfway = std::env::var("SF_RECOVERY_CKPT").as_deref() == Ok("1");
    println!("# recovery — replay throughput vs. log length (ckpt-halfway: {checkpoint_halfway})");

    for &target in &lengths {
        let dir = TempDir::new("recovery-sweep");
        let stm = Stm::new(StmConfig::ctl());
        let tree = Arc::new(OptSpecFriendlyTree::new());
        let maintenance = tree.start_maintenance(stm.register());
        // Buffered mode: the sweep measures replay, not per-op fsync cost.
        let options = WalOptions {
            group: 0,
            auto_checkpoint: 0,
            ..WalOptions::default()
        };
        let (map, _) = DurableMap::open(tree, &stm, dir.path(), options).expect("open WAL");
        let mut handle = map.register(stm.register());

        // Mixed effective mutations over a small domain: roughly half the
        // records are deletes, exercising both replay paths.
        let mut logged = 0u64;
        let mut state = 0x5eed_5eedu64 ^ target;
        while logged < target {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 4096;
            let changed = if state.is_multiple_of(3) {
                map.delete(&mut handle, key)
            } else {
                map.insert(&mut handle, key, state)
            };
            if changed {
                logged += 1;
            }
            if checkpoint_halfway && logged == target / 2 {
                map.checkpoint(&mut handle).expect("checkpoint");
            }
        }
        map.flush().expect("flush");
        let live = map.len_quiescent() as u64;

        let started = Instant::now();
        let recovery = recover(dir.path()).expect("recover");
        let elapsed = started.elapsed();
        maintenance.stop();

        assert_eq!(
            recovery.entries.len() as u64,
            live,
            "recovered entry count must match the live map"
        );
        let replay_us = elapsed.as_micros().max(1) as u64;
        let per_us = recovery.records_scanned as f64 / replay_us as f64;
        println!(
            "records={target:<8} segments={:<3} replayed={:<8} entries={live:<6} replay_us={replay_us:<8} records/us={per_us:.3}",
            recovery.segments, recovery.records_replayed,
        );
        if json_enabled() {
            let wal = sf_persist::stats::snapshot();
            println!(
                concat!(
                    "{{\"bin\":\"recovery\",\"records\":{},\"segments\":{},",
                    "\"records_replayed\":{},\"checkpoint_entries\":{},\"entries\":{},",
                    "\"replay_us\":{},\"records_per_us\":{:.6},\"ckpt_halfway\":{},",
                    "\"wal_records\":{},\"wal_bytes\":{},\"wal_batches\":{},",
                    "\"wal_checkpoints\":{},\"wal_replayed\":{},",
                    "\"wal_move_intents\":{},\"wal_moves_resolved\":{}}}"
                ),
                target,
                recovery.segments,
                recovery.records_replayed,
                recovery.checkpoint_entries,
                live,
                replay_us,
                per_us,
                checkpoint_halfway,
                wal.records,
                wal.bytes,
                wal.batches,
                wal.checkpoints,
                wal.replayed,
                wal.move_intents,
                wal.moves_resolved,
            );
        }
    }
    println!("Expected shape: replay scales linearly with surviving log length;");
    println!("a halfway checkpoint (SF_RECOVERY_CKPT=1) roughly halves the replayed records.");
}

/// Child process of the crash smoke: insert keys 1, 2, 3, ... through a
/// registry `+wal` backend and acknowledge each durable insert on stdout.
/// Runs until killed.
fn writer_child() {
    let backend_name = std::env::var("SF_RECOVERY_BACKEND").unwrap_or_else(|_| "sftree-opt".into());
    let backend =
        Backend::build(&format!("{backend_name}+wal"), StmConfig::ctl()).expect("build backend");
    let mut session = backend.session();
    let stdout = std::io::stdout();
    for key in 1..u64::MAX {
        assert!(session.insert(key, key * 10), "fresh keys always insert");
        // The insert returned => its record is durable. Acknowledge.
        let mut out = stdout.lock();
        writeln!(out, "ACK {key}").expect("parent closed the ack pipe");
        out.flush().expect("parent closed the ack pipe");
    }
}

/// Number of cross-shard key pairs the move hammer ping-pongs over.
const MOVE_PAIRS: usize = 8;

/// The unique value carried by pair `i` of the move hammer.
fn mover_value(pair: usize) -> u64 {
    1_000_000 + pair as u64
}

/// First key of the hammer's filler-insert range (disjoint from the pair
/// keys); a filler key always maps to itself. The fillers keep the
/// auto-checkpoint threshold firing *during* the hammer — a purely
/// move-driven workload never auto-checkpoints (the move scopes hold the
/// checkpoint locks), so without them the drill would sample zero
/// checkpoint/move interleavings.
const FILLER_BASE: u64 = 10_000_000;

/// Child process of the cross-shard move hammer: build a 2-shard durable
/// map directly (the drill needs `shard_of` to pick genuinely cross-shard
/// pairs), pre-insert one unique value per pair, then ping-pong each value
/// between its pair's keys forever, acknowledging every durable move on
/// stdout. Runs until killed.
fn mover_child() {
    let backend = std::env::var("SF_RECOVERY_BACKEND").unwrap_or_else(|_| "sftree-opt".into());
    let base =
        PathBuf::from(std::env::var("SF_RECOVERY_DIR").expect("mover needs SF_RECOVERY_DIR"));
    let options = WalOptions {
        group: 64,
        auto_checkpoint: 50,
        ..WalOptions::default()
    };
    match backend.as_str() {
        "sftree" => mover_hammer::<PortableFind>(&base, options),
        _ => mover_hammer::<OptimizedFind>(&base, options),
    }
}

fn mover_hammer<F: FindSpec>(base: &Path, options: WalOptions) {
    let (map, _) = sharded_spec_friendly::<F>(
        2,
        StmConfig::ctl(),
        base,
        options,
        maintenance_config(false),
    )
    .expect("open sharded WAL");
    let mut handle = map.register_sharded();
    // Pick MOVE_PAIRS disjoint key pairs whose halves hash to different
    // shards, so every hammered move crosses a shard-log boundary.
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    let mut next_key = 1u64;
    while pairs.len() < MOVE_PAIRS {
        let a = next_key;
        let mut b = a + 1;
        while map.shard_of(b) == map.shard_of(a) {
            b += 1;
        }
        next_key = b + 1;
        pairs.push((a, b));
    }
    let stdout = std::io::stdout();
    {
        let mut out = stdout.lock();
        for (i, &(a, b)) in pairs.iter().enumerate() {
            assert!(map.insert(&mut handle, a, mover_value(i)));
            writeln!(out, "PAIR {i} {a} {b}").expect("parent closed the ack pipe");
        }
        writeln!(out, "READY").expect("parent closed the ack pipe");
        out.flush().expect("parent closed the ack pipe");
    }
    // pos[i] = 0 when value i sits at pairs[i].0, 1 when at pairs[i].1.
    let mut pos = [0u8; MOVE_PAIRS];
    let mut filler = FILLER_BASE;
    loop {
        for i in 0..MOVE_PAIRS {
            let (a, b) = pairs[i];
            let (from, to) = if pos[i] == 0 { (a, b) } else { (b, a) };
            assert!(
                map.move_entry(&mut handle, from, to),
                "single-threaded hammer moves always succeed"
            );
            pos[i] ^= 1;
            // The move returned => both halves are durable. Acknowledge.
            let mut out = stdout.lock();
            writeln!(out, "MOVE {i} {}", pos[i]).expect("parent closed the ack pipe");
            out.flush().expect("parent closed the ack pipe");
        }
        // Two filler inserts per pass keep the auto-checkpoint threshold
        // advancing, so kills also land while checkpoints race the moves.
        for _ in 0..2 {
            assert!(map.insert(&mut handle, filler, filler));
            filler += 1;
        }
    }
}

/// One round of the cross-shard move hammer: spawn the mover child against
/// a fresh directory, SIGKILL it after `target_acks` acknowledged moves,
/// recover both shard logs, and check conservation: every pair's value at
/// exactly one of its two keys, and no stray keys. Returns
/// `(acked, resolved, ok)` where `resolved` counts the orphaned move
/// intents the recovery's cross-log join had to complete or roll back.
fn mover_round(backend: &str, target_acks: u64) -> (u64, u64, bool) {
    let base = TempDir::new(&format!("recovery-mover-{backend}"));
    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .env("SF_RECOVERY_ROLE", "mover")
        .env("SF_RECOVERY_BACKEND", backend)
        .env("SF_RECOVERY_DIR", base.path())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn mover child");
    let mut pairs: Vec<(u64, u64)> = vec![(0, 0); MOVE_PAIRS];
    let mut acked = 0u64;
    {
        let stdout = child.stdout.take().expect("child stdout");
        let reader = std::io::BufReader::new(stdout);
        for line in reader.lines() {
            let line = line.expect("read ack");
            let mut tokens = line.split_whitespace();
            match tokens.next() {
                Some("PAIR") => {
                    let i: usize = tokens
                        .next()
                        .and_then(|t| t.parse().ok())
                        .expect("pair idx");
                    let a: u64 = tokens.next().and_then(|t| t.parse().ok()).expect("pair a");
                    let b: u64 = tokens.next().and_then(|t| t.parse().ok()).expect("pair b");
                    pairs[i] = (a, b);
                }
                Some("MOVE") => acked += 1,
                _ => {}
            }
            if acked >= target_acks {
                break;
            }
        }
    }
    // The child is mid-move (possibly between the two shard logs' appends):
    // kill it dead.
    child.kill().expect("kill mover child");
    let _ = child.wait();

    let recovery = recover_sharded(base.path(), 2).expect("recover sharded");
    let recovered: BTreeMap<u64, u64> = recovery.entries.iter().copied().collect();
    let mut ok = true;
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let value = mover_value(i);
        let at_a = recovered.get(&a) == Some(&value);
        let at_b = recovered.get(&b) == Some(&value);
        if at_a && at_b {
            ok = false;
            eprintln!("{backend}: pair {i} value {value} DUPLICATED at keys {a} and {b}");
        }
        if !at_a && !at_b {
            ok = false;
            eprintln!("{backend}: pair {i} value {value} LOST (at neither {a} nor {b})");
        }
    }
    // Every recovered key must belong to a pair (holding that pair's
    // value) or be a self-valued filler insert.
    for (&key, &value) in &recovered {
        let legit = (key >= FILLER_BASE && value == key)
            || pairs
                .iter()
                .enumerate()
                .any(|(i, &(a, b))| (key == a || key == b) && value == mover_value(i));
        if !legit {
            ok = false;
            eprintln!("{backend}: stray recovered entry {key} -> {value}");
        }
    }
    (acked, recovery.moves_resolved, ok)
}

/// Parent of the crash smoke: spawn, ack-count, SIGKILL, recover, verify.
fn crash_smoke() {
    let target_acks = env_u64("SF_RECOVERY_ACKS", 150);
    let mut failures = 0u32;
    for backend in ["sftree-opt", "sftree-opt-sharded2"] {
        let base = TempDir::new(&format!("recovery-smoke-{backend}"));
        let exe = std::env::current_exe().expect("current_exe");
        let mut child = std::process::Command::new(exe)
            .env("SF_RECOVERY_ROLE", "writer")
            .env("SF_RECOVERY_BACKEND", backend)
            .env("SF_WAL_DIR", base.path())
            .env_remove("SF_WAL_GROUP") // children must sync per batch
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn writer child");
        let mut acked = 0u64;
        {
            let stdout = child.stdout.take().expect("child stdout");
            let reader = std::io::BufReader::new(stdout);
            for line in reader.lines() {
                let line = line.expect("read ack");
                if let Some(key) = line
                    .strip_prefix("ACK ")
                    .and_then(|k| k.parse::<u64>().ok())
                {
                    acked = acked.max(key);
                }
                if acked >= target_acks {
                    break;
                }
            }
        }
        // The child is mid-insert (and mid-maintenance): kill it dead.
        child.kill().expect("kill writer child");
        let _ = child.wait();

        // The child's registry build #0 landed in `<backend>+wal-0`.
        let dir: PathBuf = base.path().join(format!("{backend}+wal-0"));
        let recovery = if backend.contains("sharded2") {
            recover_sharded(&dir, 2).expect("recover sharded")
        } else {
            recover(&dir).expect("recover")
        };
        let recovered: BTreeMap<u64, u64> = recovery.entries.iter().copied().collect();
        let max_key = recovery.entries.last().map_or(0, |&(k, _)| k);
        let mut ok = max_key >= acked;
        for key in 1..=max_key {
            if recovered.get(&key) != Some(&(key * 10)) {
                ok = false;
                eprintln!("{backend}: key {key} lost or wrong after crash");
            }
        }
        // The dense prefix property: exactly the keys 1..=max survive (the
        // child only ever inserted fresh keys in order).
        if recovered.len() as u64 != max_key {
            ok = false;
        }
        println!(
            "crash-smoke backend={backend} acked={acked} recovered={} max_key={max_key} torn_bytes={} => {}",
            recovered.len(),
            recovery.torn_bytes,
            if ok { "PASS" } else { "FAIL" }
        );
        if json_enabled() {
            println!(
                "{{\"bin\":\"recovery-smoke\",\"backend\":\"{backend}\",\"acked\":{acked},\"recovered\":{},\"pass\":{ok}}}",
                recovered.len()
            );
        }
        if !ok {
            failures += 1;
        }
    }

    // Phase 2: the cross-shard move hammer (see the module docs) — several
    // kill-recover rounds per sharded backend so the SIGKILL samples many
    // points of the move protocol, including between the two shard logs.
    let move_rounds = env_u64("SF_RECOVERY_MOVE_ROUNDS", 3);
    let move_acks = env_u64("SF_RECOVERY_MOVE_ACKS", 120);
    for backend in ["sftree-opt", "sftree"] {
        let mut total_acked = 0u64;
        let mut total_resolved = 0u64;
        let mut ok = true;
        for round in 0..move_rounds {
            // Vary the kill point across rounds.
            let (acked, resolved, round_ok) = mover_round(backend, move_acks + round * 17);
            total_acked += acked;
            total_resolved += resolved;
            ok &= round_ok;
        }
        println!(
            "crash-smoke cross-move backend={backend}-sharded2+wal rounds={move_rounds} acked={total_acked} moves_resolved={total_resolved} => {}",
            if ok { "PASS" } else { "FAIL" }
        );
        if json_enabled() {
            println!(
                "{{\"bin\":\"recovery-smoke\",\"phase\":\"cross-move\",\"backend\":\"{backend}-sharded2+wal\",\"rounds\":{move_rounds},\"acked\":{total_acked},\"moves_resolved\":{total_resolved},\"pass\":{ok}}}"
            );
        }
        if !ok {
            failures += 1;
        }
    }

    if failures > 0 {
        std::process::exit(1);
    }
}
