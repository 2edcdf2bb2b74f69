//! `--compare A.json B.json`: one row per workload and end-to-end metric,
//! judged against the bounds in `BENCHMARK.json`.
//!
//! A is the parent (or the first set of runs), B the change (or the second
//! set). With `--runs N` files each side has N values per metric; a
//! single-run file has one.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::stats;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound and the spread.
    Better,
    /// Within the bound either way.
    Same,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Run-to-run spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Direction and regression bound of one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub higher_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// The rules `BENCHMARK.json` fixes, by metric name.
pub fn rules_from_benchmark_json(json: &Json) -> Result<BTreeMap<String, Rule>, String> {
    let list = json
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?;
    let mut rules = BTreeMap::new();
    for m in list.as_arr() {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without a name")?;
        let better = m
            .get("better")
            .and_then(Json::as_str)
            .ok_or("metric without a direction")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without a bound")?;
        rules.insert(
            name.to_string(),
            Rule {
                higher_is_better: better == "higher",
                bound,
            },
        );
    }
    Ok(rules)
}

/// How much worse B's median is than A's, as a share of A's median
/// (negative when B is better).
fn worse_by(a: &[f64], b: &[f64], rule: Rule) -> f64 {
    let (ma, mb) = (stats::median(a), stats::median(b));
    if ma == 0.0 {
        return 0.0;
    }
    let change = (mb - ma) / ma.abs();
    if rule.higher_is_better {
        -change
    } else {
        change
    }
}

/// Judge one metric of one workload.
pub fn judge(a: &[f64], b: &[f64], rule: Rule) -> Verdict {
    let spread = stats::spread(a).max(stats::spread(b));
    let worse = worse_by(a, b, rule);
    if spread > rule.bound {
        // Too noisy to compare medians — unless the sides do not overlap.
        let every_b_beats_every_a = if rule.higher_is_better {
            b.iter().copied().fold(f64::INFINITY, f64::min)
                > a.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        } else {
            b.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                < a.iter().copied().fold(f64::INFINITY, f64::min)
        };
        return if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse > rule.bound {
        Verdict::Worse
    } else if -worse > rule.bound.max(stats::spread(a)) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn values_of(file: &Json, workload: &str, metric: &str) -> Vec<f64> {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("values"))
        .map(|v| v.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn digest_of(file: &Json, workload: &str) -> Option<(String, bool)> {
    let d = file.get("workloads")?.get(workload)?.get("sim_digest")?;
    Some((
        d.get("value")?.as_str()?.to_string(),
        matches!(d.get("must_repeat"), Some(Json::Bool(true))),
    ))
}

/// The comparison table and whether anything regressed.
pub struct Comparison {
    pub text: String,
    /// Rows judged `worse` (including a changed 1-thread digest).
    pub worse: usize,
    /// Rows whose run-to-run spread exceeds their bound.
    pub unresolved: usize,
}

pub fn compare(a: &Json, b: &Json, rules: &BTreeMap<String, Rule>, order: &[&str]) -> Comparison {
    let mut text = String::new();
    let (mut worse, mut unresolved) = (0, 0);
    let same_seed = a.get("provenance").and_then(|p| p.get("seed"))
        == b.get("provenance").and_then(|p| p.get("seed"));
    writeln!(
        text,
        "{:<14} {:<28} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse%", "spread%", "bound%"
    )
    .expect("string write");
    let workloads: Vec<String> = a
        .get("workloads")
        .map(|w| w.as_obj().iter().map(|(k, _)| k.clone()).collect())
        .unwrap_or_default();
    for workload in &workloads {
        for &metric in order {
            let Some(&rule) = rules.get(metric) else {
                continue;
            };
            let (va, vb) = (
                values_of(a, workload, metric),
                values_of(b, workload, metric),
            );
            if va.is_empty() || vb.is_empty() {
                writeln!(
                    text,
                    "{workload:<14} {metric:<28} missing on one side  worse"
                )
                .expect("string write");
                worse += 1;
                continue;
            }
            let verdict = judge(&va, &vb, rule);
            match verdict {
                Verdict::Worse => worse += 1,
                Verdict::Unresolved => unresolved += 1,
                _ => {}
            }
            writeln!(
                text,
                "{workload:<14} {metric:<28} {:>14.6} {:>14.6} {:>8.2} {:>7.2} {:>7.1}  {}",
                stats::median(&va),
                stats::median(&vb),
                100.0 * worse_by(&va, &vb, rule),
                100.0 * stats::spread(&va).max(stats::spread(&vb)),
                100.0 * rule.bound,
                verdict.label()
            )
            .expect("string write");
        }
        // A change meant only to speed the simulator up must leave every
        // simulated statistic identical.
        if let (Some((da, must_repeat)), Some((db, _))) =
            (digest_of(a, workload), digest_of(b, workload))
        {
            let verdict = if !same_seed {
                "n/a (different seeds)"
            } else if da == db {
                "identical"
            } else if must_repeat {
                worse += 1;
                "DIFFERS (1 simulated thread: must repeat)  worse"
            } else {
                "differs (2 simulated threads: reported, not gated)"
            };
            writeln!(
                text,
                "{workload:<14} {:<28} {da:>14} {db:>14}  {verdict}",
                "sim_digest"
            )
            .expect("string write");
        }
    }
    writeln!(text, "{worse} worse, {unresolved} unresolved").expect("string write");
    Comparison {
        text,
        worse,
        unresolved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    const LOWER: Rule = Rule {
        higher_is_better: false,
        bound: 0.10,
    };
    const HIGHER: Rule = Rule {
        higher_is_better: true,
        bound: 0.10,
    };

    #[test]
    fn single_values_compare_against_the_bound() {
        assert_eq!(judge(&[1.0], &[1.05], LOWER), Verdict::Same);
        assert_eq!(judge(&[1.0], &[1.2], LOWER), Verdict::Worse);
        assert_eq!(judge(&[1.0], &[0.8], LOWER), Verdict::Better);
        assert_eq!(judge(&[100.0], &[80.0], HIGHER), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[120.0], HIGHER), Verdict::Better);
        assert_eq!(judge(&[100.0], &[95.0], HIGHER), Verdict::Same);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_sides_do_not_overlap() {
        let noisy = [1.0, 1.3, 0.8, 1.4, 0.9];
        assert!(stats::spread(&noisy) > 0.10);
        assert_eq!(
            judge(&noisy, &[1.0, 1.1, 1.2, 0.9, 1.3], LOWER),
            Verdict::Unresolved
        );
        // Every B run faster than every A run: better despite the noise.
        assert_eq!(
            judge(&noisy, &[0.5, 0.6, 0.4, 0.7, 0.55], LOWER),
            Verdict::Better
        );
        // Non-overlapping the wrong way round is still unresolved, not worse:
        // the medians cannot be trusted at this spread.
        assert_eq!(
            judge(&noisy, &[2.0, 2.6, 1.6, 2.8, 1.8], LOWER),
            Verdict::Unresolved
        );
    }

    #[test]
    fn tight_runs_resolve() {
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            judge(&a, &[1.00, 1.02, 0.99, 1.01, 1.00], LOWER),
            Verdict::Same
        );
        assert_eq!(
            judge(&a, &[1.20, 1.21, 1.19, 1.22, 1.20], LOWER),
            Verdict::Worse
        );
        assert_eq!(
            judge(&a, &[0.80, 0.81, 0.79, 0.80, 0.82], LOWER),
            Verdict::Better
        );
    }

    fn file(seed: u64, wall: &[f64], digest: &str) -> Json {
        obj([
            ("provenance", obj([("seed", seed.into())])),
            (
                "workloads",
                obj([(
                    "solo_sim",
                    obj([
                        (
                            "end_to_end",
                            obj([(
                                "wall_s",
                                obj([(
                                    "values",
                                    Json::Arr(wall.iter().map(|&v| v.into()).collect()),
                                )]),
                            )]),
                        ),
                        (
                            "sim_digest",
                            obj([("value", digest.into()), ("must_repeat", true.into())]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn comparison_counts_regressions_and_changed_digests() {
        let rules: BTreeMap<String, Rule> = [("wall_s".to_string(), LOWER)].into();
        let a = file(1, &[1.0], "aa");
        let same = compare(&a, &file(1, &[1.01], "aa"), &rules, &["wall_s"]);
        assert_eq!((same.worse, same.unresolved), (0, 0), "{}", same.text);
        assert!(same.text.contains("identical"));

        let slower = compare(&a, &file(1, &[1.5], "aa"), &rules, &["wall_s"]);
        assert_eq!(slower.worse, 1, "{}", slower.text);

        let changed = compare(&a, &file(1, &[1.0], "bb"), &rules, &["wall_s"]);
        assert_eq!(changed.worse, 1, "{}", changed.text);

        let other_seed = compare(&a, &file(2, &[1.0], "bb"), &rules, &["wall_s"]);
        assert_eq!(other_seed.worse, 0, "{}", other_seed.text);
    }

    #[test]
    fn rules_come_from_benchmark_json() {
        let json = Json::parse(
            r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1},
                              {"name":"sim_mcps","unit":"Mcycles/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let rules = rules_from_benchmark_json(&json).unwrap();
        assert_eq!(rules["wall_s"], LOWER);
        assert_eq!(rules["sim_mcps"], HIGHER);
        assert!(rules_from_benchmark_json(&Json::Null).is_err());
    }
}
