//! Replays a serving script and writes the deterministic transcript —
//! and, for the crash-recovery checks, drives the same script through the
//! live WAL-backed path and recovers a killed run's log.
//!
//! The CI `serve-smoke` job runs the replay mode twice — `--threads 1`
//! and `--threads 8` — and diffs the transcript files byte-for-byte: any
//! scheduling leak into the transcript fails the build. The `chaos-smoke`
//! job runs `--drive --wal ... --throttle-ms ... --fault-seed ...`, kills
//! the process with SIGKILL mid-script, then runs `--recover` and diffs
//! the recovered transcript against an uninterrupted run's prefix.
//!
//! ```text
//! serve_replay [--threads N] [--script FILE] [--out FILE] [--cache-bytes N]
//!              [--records-only]
//!              [--drive --wal FILE [--throttle-ms N] [--checkpoint-every N]
//!                       [--fault-seed N --fault-rate PERMILLE]]
//!              [--recover --wal FILE]
//! ```
//!
//! With no `--script`, replays the built-in smoke script against two
//! hosted synthetic datasets (`er`: G(200, 0.05); `ba`: BA(200, 3)),
//! both seeded fixedly so every invocation serves identical data.

use pgb_par::fault::{self, FaultPlan};
use pgb_serve::{parse_script, Script, Server, ServerConfig, SMOKE_SCRIPT};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

struct Args {
    threads: usize,
    script: Option<String>,
    out: String,
    cache_bytes: usize,
    /// Write only the per-record blocks (no tenant footer), so a prefix
    /// log renders to a byte prefix — what the crash checks diff.
    records_only: bool,
    /// Drive the script through the live `submit` path instead of replay.
    drive: bool,
    /// Recover a server from the WAL instead of driving/replaying.
    recover: bool,
    /// WAL path for `--drive` / `--recover`.
    wal: Option<String>,
    /// Sleep between driven requests, so an external SIGKILL lands
    /// mid-script deterministically enough to be useful.
    throttle_ms: u64,
    /// WAL checkpoint cadence while driving (0 ⇒ never).
    checkpoint_every: u64,
    /// Seeded fault plan while driving.
    fault_seed: Option<u64>,
    fault_rate: u16,
}

/// Parses the flags that follow the program name.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        threads: 0,
        script: None,
        out: "target/serve_transcript.txt".to_string(),
        cache_bytes: 64 << 20,
        records_only: false,
        drive: false,
        recover: false,
        wal: None,
        throttle_ms: 0,
        checkpoint_every: 0,
        fault_seed: None,
        fault_rate: 100,
    };
    fn parsed<T: std::str::FromStr>(name: &str, v: String) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("{name}: {e}"))
    }
    let mut iter = argv.into_iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--threads" => args.threads = parsed("--threads", value("--threads")?)?,
            "--script" => args.script = Some(value("--script")?),
            "--out" => args.out = value("--out")?,
            "--cache-bytes" => args.cache_bytes = parsed("--cache-bytes", value("--cache-bytes")?)?,
            "--records-only" => args.records_only = true,
            "--drive" => args.drive = true,
            "--recover" => args.recover = true,
            "--wal" => args.wal = Some(value("--wal")?),
            "--throttle-ms" => args.throttle_ms = parsed("--throttle-ms", value("--throttle-ms")?)?,
            "--checkpoint-every" => {
                args.checkpoint_every = parsed("--checkpoint-every", value("--checkpoint-every")?)?;
            }
            "--fault-seed" => {
                args.fault_seed = Some(parsed("--fault-seed", value("--fault-seed")?)?);
            }
            "--fault-rate" => args.fault_rate = parsed("--fault-rate", value("--fault-rate")?)?,
            "--help" | "-h" => {
                println!(
                    "usage: serve_replay [--threads N] [--script FILE] [--out FILE] \
                     [--cache-bytes N] [--records-only]\n\
                     \x20                  [--drive --wal FILE [--throttle-ms N] \
                     [--checkpoint-every N] [--fault-seed N --fault-rate PERMILLE]]\n\
                     \x20                  [--recover --wal FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.drive && args.recover {
        return Err("--drive and --recover are mutually exclusive".into());
    }
    if (args.drive || args.recover) && args.wal.is_none() {
        return Err("--drive/--recover require --wal FILE".into());
    }
    if args.fault_seed.is_some() && !args.drive {
        return Err("--fault-seed only applies to --drive".into());
    }
    // A fault fires when a hash mod 1000 falls below the rate, so a rate
    // above 1000 would silently act as 1000.
    if args.fault_rate > 1000 {
        return Err(format!("--fault-rate: {} is above 1000 permille", args.fault_rate));
    }
    Ok(args)
}

/// The fixed datasets every serve_replay invocation hosts. Seeds are
/// constants: the transcript pins the synthetic outputs, so the inputs
/// must be bit-stable across runs and thread counts too.
fn host_datasets(server: &mut Server) {
    let er = pgb_models::erdos_renyi_gnp(200, 0.05, &mut StdRng::seed_from_u64(0xE0));
    let ba = pgb_models::barabasi_albert(200, 3, &mut StdRng::seed_from_u64(0xBA));
    server.host_dataset("er", er);
    server.host_dataset("ba", ba);
}

fn build_server(args: &Args, script: &Script) -> Result<Server, String> {
    let config = ServerConfig {
        cache_bytes: args.cache_bytes,
        threads: args.threads,
        wal_checkpoint_every: args.checkpoint_every,
        ..ServerConfig::default()
    };
    let mut server = Server::new(config);
    host_datasets(&mut server);
    script.register_on(&server).map_err(|e| format!("registering tenants: {e}"))?;
    Ok(server)
}

fn write_out(out: &str, text: &str) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(out, text).map_err(|e| format!("writing {out}: {e}"))
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let text = match &args.script {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
        None => SMOKE_SCRIPT.to_string(),
    };
    let script: Script = parse_script(&text)?;
    let server = build_server(&args, &script)?;

    let transcript = if args.recover {
        let wal = args.wal.as_deref().expect("validated by parse_args");
        let recovery = server.recover(wal).map_err(|e| format!("recovering {wal}: {e}"))?;
        if let Some(corrupt) = &recovery.corrupt {
            eprintln!("serve_replay: {corrupt}");
        }
        if let Some(divergence) = &recovery.divergence {
            return Err(format!("recovering {wal}: {divergence}"));
        }
        eprintln!("recovered {} admissions from {wal}", recovery.recovered);
        recovery.transcript
    } else if args.drive {
        let wal = args.wal.as_deref().expect("validated by parse_args");
        server.attach_wal(wal).map_err(|e| format!("creating WAL {wal}: {e}"))?;
        let drive = || {
            for entry in &script.log {
                // Outcomes (including injected faults and WAL halts) are
                // part of the exercise; the driven log is judged by
                // recovery.
                let _ = server.submit(&entry.tenant, entry.request.clone());
                if args.throttle_ms != 0 {
                    std::thread::sleep(std::time::Duration::from_millis(args.throttle_ms));
                }
            }
        };
        match args.fault_seed {
            Some(seed) => {
                fault::install_quiet_panic_hook();
                fault::with_plan(FaultPlan { seed, rate_permille: args.fault_rate }, drive);
            }
            None => drive(),
        }
        // The driving server's accountant is already charged; transcribe
        // the driven log on a fresh server so nothing double-charges.
        build_server(&args, &script)?.replay(&server.log(), args.threads)
    } else {
        server.replay(&script.log, args.threads)
    };

    let rendered = if args.records_only { transcript.records_text() } else { transcript.to_text() };
    write_out(&args.out, &rendered)?;

    let admitted = transcript.records.iter().filter(|r| r.admission.is_ok()).count();
    let stats = server.cache().stats();
    eprintln!(
        "replayed {} requests ({admitted} admitted) over {} worker budget: \
         {} measures, {} hits, {} coalesced, {} evictions → {}",
        transcript.records.len(),
        args.threads,
        stats.measures,
        stats.hits,
        stats.coalesced,
        stats.evictions,
        args.out
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_replay: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn fault_rate_is_at_most_a_thousand_permille() {
        let drive = ["--drive", "--wal", "x.wal", "--fault-seed", "7", "--fault-rate"];
        let rate = |r| parse(&[&drive[..], &[r]].concat()).map(|a| a.fault_rate);
        assert_eq!(rate("1000"), Ok(1000));
        assert_eq!(rate("1001"), Err("--fault-rate: 1001 is above 1000 permille".into()));
    }
}
