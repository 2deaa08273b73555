use crate::{usage_error, USAGE};
use lpr_obs::args::{self, Arg};
use lpr_obs::json::JsonValue;
use std::io::Write;

pub(crate) fn compare_cmd(args: &[String]) -> i32 {
    let mut current_path: Option<String> = None;
    let mut against: Option<String> = None;
    let mut diff_out: Option<String> = None;
    let parsed = args::each(args, |arg, a| {
        match arg {
            Arg::Flag("--against") => against = Some(a.value()?),
            Arg::Flag("--diff-out") => diff_out = Some(a.value()?),
            Arg::Positional(path) if current_path.is_none() => {
                current_path = Some(path.to_string())
            }
            _ => return Err(a.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(e);
    }
    let (Some(current_path), Some(against)) = (current_path, against) else {
        eprintln!("compare wants <current.json> --against <baseline.json>\n{USAGE}");
        return 2;
    };

    let load = |path: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        lpr_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (current, baseline) = match (load(&current_path), load(&against)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 1;
        }
    };

    let outcome = lpr_bench::compare::run(&current, &baseline);
    say!("comparing the counts of {current_path} against {against}");
    for line in &outcome.skipped {
        say!("  skipped: {line}");
    }
    for skip in &outcome.sections_skipped {
        say!("  section skipped: {} ({})", skip.section, skip.reason);
    }
    for line in &outcome.mismatches {
        eprintln!("FAIL: {line}");
    }
    if let Some(path) = diff_out {
        if let Err(e) = std::fs::write(&path, outcome.to_json()) {
            eprintln!("{path}: {e}");
            return 1;
        }
        say!("wrote {path}");
    }
    if outcome.passed() {
        say!("compare: ok");
        0
    } else {
        eprintln!("compare: count mismatch");
        1
    }
}

pub(crate) fn baseline_cmd(args: &[String]) -> i32 {
    let mut in_path: Option<String> = None;
    let mut out_path = "results/BENCH_baseline.json".to_string();
    let parsed = args::each(args, |arg, a| {
        match arg {
            Arg::Flag("--out") => out_path = a.value()?,
            Arg::Positional(path) if in_path.is_none() => in_path = Some(path.to_string()),
            _ => return Err(a.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(e);
    }
    let Some(in_path) = in_path else {
        eprintln!("baseline wants <BENCH_pipeline.json>\n{USAGE}");
        return 2;
    };
    let report = match std::fs::read_to_string(&in_path)
        .map_err(|e| format!("{in_path}: {e}"))
        .and_then(|text| lpr_obs::json::parse(&text).map_err(|e| format!("{in_path}: {e}")))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let stripped = lpr_bench::compare::strip_nondeterministic(&report).render_pretty();
    if let Err(e) = std::fs::write(&out_path, stripped) {
        eprintln!("{out_path}: {e}");
        return 1;
    }
    say!("wrote {out_path} (wall-time-free baseline of {in_path})");
    0
}

/// `lpr-bench corrupt` — seeded byte corruption of a warts file, the
/// smoke-test helper for the daemon's quarantine path.
pub(crate) fn corrupt_cmd(args: &[String]) -> i32 {
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut rate = 0.10f64;
    let mut seed = 1u64;
    let parsed = args::each(args, |arg, a| {
        match arg {
            Arg::Flag("--out") => output = Some(a.value()?),
            Arg::Flag("--rate") => rate = a.parse()?,
            Arg::Flag("--seed") => seed = a.parse()?,
            Arg::Positional(path) if input.is_none() => input = Some(path.to_string()),
            _ => return Err(a.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(e);
    }
    let (Some(input), Some(output)) = (input, output) else {
        eprintln!("corrupt wants <in.warts> --out <out.warts>\n{USAGE}");
        return 2;
    };
    let bytes = match std::fs::read(&input) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("{input}: {e}");
            return 1;
        }
    };
    let (corrupted, counts) = lpr_chaos::corrupt_warts_bytes(&bytes, seed, rate);
    if let Err(e) = std::fs::write(&output, &corrupted) {
        eprintln!("{output}: {e}");
        return 1;
    }
    say!(
        "{input} -> {output}: {} bit flips, {} truncated bodies, {} bad lengths, \
         {} bad magics (rate {rate}, seed {seed})",
        counts.bit_flips,
        counts.truncated_bodies,
        counts.bad_lengths,
        counts.bad_magics,
    );
    0
}
