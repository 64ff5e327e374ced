//! Tiny `--flag=value` argument parsing shared by the workspace's binaries
//! (`experiments`, `intra_bench`, `bench_diff`, `loadgen`, `ampc-serve`);
//! the build has no registry access, so there is no clap.

/// Last value of `--{name}=value` parsed as `T`, if present and parseable.
pub fn parse_flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let prefix = format!("--{name}=");
    args.iter()
        .filter_map(|arg| arg.strip_prefix(&prefix))
        .next_back()
        .and_then(|raw| raw.parse().ok())
}

/// Whether the bare flag `--{name}` is present.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|arg| arg == &format!("--{name}"))
}

/// The first argument that is neither a bare flag `--{name}` with `name`
/// in `bare` nor a `--{name}=value` with `name` in `valued`, if any.
pub fn unknown_argument<'a>(args: &'a [String], bare: &[&str], valued: &[&str]) -> Option<&'a str> {
    args.iter().map(String::as_str).find(|arg| {
        let Some(flag) = arg.strip_prefix("--") else {
            return true;
        };
        match flag.split_once('=') {
            Some((name, _)) => !valued.contains(&name),
            None => !bare.contains(&flag),
        }
    })
}

/// The first `--{name}=value` argument whose value is malformed, if any:
/// for `name` in `counts` the value must be a positive integer, for `name`
/// in `lists` a comma-separated list of positive integers. Every occurrence
/// is checked, not just the last one [`parse_flag`] reads, so a binary that
/// rejects the result never falls back to a default on a typo.
pub fn malformed_argument<'a>(
    args: &'a [String],
    counts: &[&str],
    lists: &[&str],
) -> Option<&'a str> {
    let positive = |raw: &str| raw.parse::<usize>().is_ok_and(|value| value > 0);
    first_malformed(args, |name, raw| {
        if counts.contains(&name) {
            !positive(raw)
        } else if lists.contains(&name) {
            !raw.split(',').all(positive)
        } else {
            false
        }
    })
}

/// The first `--{name}=value` argument with `name` in `names` whose value
/// is not a finite non-negative number (`0.15`, `2`, `1e-3`), if any. Like
/// [`malformed_argument`], it checks every occurrence.
pub fn malformed_number<'a>(args: &'a [String], names: &[&str]) -> Option<&'a str> {
    first_malformed(args, |name, raw| {
        names.contains(&name)
            && !raw
                .parse::<f64>()
                .is_ok_and(|value| value.is_finite() && value >= 0.0)
    })
}

/// The first `--{name}=value` argument for which `malformed(name, value)`
/// holds.
fn first_malformed(args: &[String], malformed: impl Fn(&str, &str) -> bool) -> Option<&str> {
    args.iter().map(String::as_str).find(|arg| {
        arg.strip_prefix("--")
            .and_then(|flag| flag.split_once('='))
            .is_some_and(|(name, raw)| malformed(name, raw))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_last_value_and_bare_flags() {
        let args: Vec<String> = ["--jobs=3", "--smoke", "--jobs=7", "--bad=x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse_flag::<usize>(&args, "jobs"), Some(7));
        assert_eq!(parse_flag::<usize>(&args, "bad"), None);
        assert_eq!(parse_flag::<usize>(&args, "missing"), None);
        assert!(has_flag(&args, "smoke"));
        assert!(!has_flag(&args, "jobs"));
    }

    #[test]
    fn unknown_argument_finds_the_first_argument_outside_the_lists() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        let (bare, valued) = (&["smoke", "trace"][..], &["n", "alloc-budget"][..]);
        let known = args(&["--smoke", "--n=5", "--alloc-budget=4096", "--trace", "--n="]);
        assert_eq!(unknown_argument(&known, bare, valued), None);
        assert_eq!(unknown_argument(&[], bare, valued), None);
        for (list, unknown) in [
            (
                &["--smoke", "--alloc_budget=4096"][..],
                "--alloc_budget=4096",
            ),
            (&["--help"][..], "--help"),
            (&["--n"][..], "--n"),
            (&["--smoke=1"][..], "--smoke=1"),
            (&["smoke"][..], "smoke"),
            (&["-n=5", "--bogus"][..], "-n=5"),
        ] {
            assert_eq!(
                unknown_argument(&args(list), bare, valued),
                Some(unknown),
                "{list:?}"
            );
        }
    }

    #[test]
    fn malformed_argument_rejects_values_the_parser_would_drop() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        let (counts, lists) = (&["n", "reps"][..], &["threads"][..]);
        let valid = args(&[
            "--smoke",
            "--n=5000",
            "--reps=1",
            "--threads=1,2,4",
            "--threads=8",
            "--json=out.json",
            "--alloc-budget=x",
        ]);
        assert_eq!(malformed_argument(&valid, counts, lists), None);
        assert_eq!(malformed_argument(&[], counts, lists), None);
        for (list, malformed) in [
            (&["--n=1e5"][..], "--n=1e5"),
            (&["--reps=x"][..], "--reps=x"),
            (&["--reps=0"][..], "--reps=0"),
            (&["--n="][..], "--n="),
            (&["--n=-3"][..], "--n=-3"),
            (&["--threads=2,x"][..], "--threads=2,x"),
            (&["--threads=0"][..], "--threads=0"),
            (&["--threads=1,,2"][..], "--threads=1,,2"),
            (&["--threads="][..], "--threads="),
            (&["--threads=1,2", "--n=7", "--n=big"][..], "--n=big"),
        ] {
            assert_eq!(
                malformed_argument(&args(list), counts, lists),
                Some(malformed),
                "{list:?}"
            );
        }
    }

    #[test]
    fn malformed_number_rejects_what_is_not_a_finite_non_negative_number() {
        let args = |list: &[&str]| -> Vec<String> { list.iter().map(|s| s.to_string()).collect() };
        let names = &["rel-threshold", "abs-floor"][..];
        let valid = args(&[
            "--rel-threshold=0.15",
            "--abs-floor=2",
            "--abs-floor=0",
            "--rel-threshold=1e-3",
            "--allow-wall-regression",
            "--out=delta.md",
            "--other=abc",
        ]);
        assert_eq!(malformed_number(&valid, names), None);
        assert_eq!(malformed_number(&[], names), None);
        for (list, malformed) in [
            (&["--rel-threshold=abc"][..], "--rel-threshold=abc"),
            (&["--rel-threshold="][..], "--rel-threshold="),
            (&["--abs-floor=-1"][..], "--abs-floor=-1"),
            (&["--abs-floor=NaN"][..], "--abs-floor=NaN"),
            (&["--rel-threshold=inf"][..], "--rel-threshold=inf"),
            (&["--rel-threshold=0.5%"][..], "--rel-threshold=0.5%"),
            (&["--rel-threshold= 0.5"][..], "--rel-threshold= 0.5"),
            (
                &["--rel-threshold=0.2", "--abs-floor=1", "--rel-threshold=x"][..],
                "--rel-threshold=x",
            ),
        ] {
            assert_eq!(
                malformed_number(&args(list), names),
                Some(malformed),
                "{list:?}"
            );
        }
    }
}
