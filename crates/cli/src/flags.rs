//! Flag checking shared by the `sim` subcommands.

/// Splits `args` into positional arguments, rejecting every `--flag` the
/// caller does not declare, so a misspelt or removed flag fails instead of
/// being ignored. Flags in `with_value` consume the argument after them
/// (so a value is never mistaken for a positional); flags in `switches`
/// stand alone.
///
/// # Errors
///
/// Returns an "unknown flag" message for an undeclared flag, or one naming
/// the flag when a value flag is the last argument, followed by `usage` on
/// its own line.
pub fn positionals<'a>(
    args: &'a [String],
    with_value: &[&str],
    switches: &[&str],
    usage: &str,
) -> Result<Vec<&'a str>, String> {
    let mut out = Vec::new();
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        if with_value.contains(&a) {
            it.next()
                .ok_or_else(|| format!("flag `{a}` needs a value\n{usage}"))?;
        } else if !a.starts_with("--") {
            out.push(a);
        } else if !switches.contains(&a) {
            return Err(format!("unknown flag `{a}`\n{usage}"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn known_flags_pass_and_values_are_not_positionals() {
        let a = args(&["run.cfg", "--csv", "out", "--quiet", "extra"]);
        assert_eq!(
            positionals(&a, &["--csv"], &["--quiet"], "usage").unwrap(),
            ["run.cfg", "extra"]
        );
        // A value that looks like a positional is still consumed.
        let a = args(&["--json", "x.ckpt", "x.ckpt"]);
        assert_eq!(
            positionals(&a, &["--json"], &[], "usage").unwrap(),
            ["x.ckpt"]
        );
    }

    #[test]
    fn unknown_and_removed_flags_are_rejected() {
        for flag in ["--engine-threads", "--seed", "--csvv"] {
            let a = args(&["run.cfg", flag, "4"]);
            assert_eq!(
                positionals(&a, &["--csv"], &["--quiet"], "usage: sim run"),
                Err(format!("unknown flag `{flag}`\nusage: sim run"))
            );
        }
        let a = args(&["run.cfg", "--csv"]);
        assert!(positionals(&a, &["--csv"], &[], "usage")
            .unwrap_err()
            .starts_with("flag `--csv` needs a value\n"));
    }
}
