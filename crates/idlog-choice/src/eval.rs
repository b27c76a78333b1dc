//! The KN88 intended-model semantics, as described in the paper (§3.2.2):
//!
//! 1. construct the unique minimal (perfect) model of `Pᶜ`, where every
//!    choice clause contributes *all* candidate tuples to its choice
//!    predicate;
//! 2. for each choice predicate, pick a **functional subset** of its
//!    candidates w.r.t. `X̄ → Ȳ` — one tuple per `X̄`-group;
//! 3. re-evaluate the non-choice clauses with the chosen facts fixed.
//!
//! Every combination of functional subsets yields one intended model;
//! [`intended_models`] enumerates them all (budgeted) and
//! [`one_intended_model`] resolves a single one (canonically or by seed).

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use idlog_common::{Interner, Tuple};
use idlog_core::{
    evaluate_with_options, AnswerSet, CanonicalOracle, CoreError, EnumBudget, EvalOptions,
    EvalStats, ValidatedProgram,
};
use idlog_parser::Program;
use idlog_storage::{group_by, Database, Grouping, Relation};

use crate::checks::check_conditions;
use crate::error::{ChoiceError, ChoiceResult};
use crate::translate::{translate, Translated};

/// Budget for intended-model enumeration (same shape as the IDLOG one).
pub type ChoiceBudget = EnumBudget;

/// Everything shared by the enumeration and single-model paths.
struct Prepared {
    translated: Translated,
    /// `Pᶜ` with the choice clauses removed (choice predicates become
    /// inputs).
    fixed_program: ValidatedProgram,
    /// Candidate pool and its grouping, per choice site.
    pools: Vec<(Relation, Grouping)>,
    /// Statistics from the candidate-pool evaluation.
    pool_stats: EvalStats,
}

fn prepare(program: &Program, interner: &Arc<Interner>, db: &Database) -> ChoiceResult<Prepared> {
    check_conditions(program, interner)?;
    let translated = translate(program, interner)?;

    // Phase 1: candidate pools from the full Pᶜ.
    let pc = ValidatedProgram::new(translated.program.clone(), Arc::clone(interner))?;
    let out = evaluate_with_options(&pc, db, &mut CanonicalOracle, &EvalOptions::default())?;
    let pool_stats = out.stats();

    let mut pools = Vec::with_capacity(translated.sites.len());
    for site in &translated.sites {
        let rel = out
            .relation(&site.name)
            .cloned()
            .unwrap_or_else(|| Relation::elementary(site.grouped + site.chosen));
        let positions: Vec<usize> = (0..site.grouped).collect();
        let grouping = group_by(&rel, &positions, interner);
        pools.push((rel, grouping));
    }

    // Phase 3 program: non-choice clauses only.
    let def_clauses: Vec<usize> = translated.sites.iter().map(|s| s.def_clause).collect();
    let fixed_clauses: Vec<_> = translated
        .program
        .clauses
        .iter()
        .enumerate()
        .filter(|(i, _)| !def_clauses.contains(i))
        .map(|(_, c)| c.clone())
        .collect();
    let fixed_program = ValidatedProgram::new(
        Program {
            clauses: fixed_clauses,
        },
        Arc::clone(interner),
    )?;

    Ok(Prepared {
        translated,
        fixed_program,
        pools,
        pool_stats,
    })
}

/// Evaluate the fixed program with one concrete functional subset per site.
fn eval_with_selection(
    prep: &Prepared,
    db: &Database,
    output: &str,
    selection: &[Vec<usize>], // per site, chosen member index per group
) -> ChoiceResult<(Relation, EvalStats)> {
    let mut db2 = db.clone();
    for (site, ((rel, grouping), picks)) in prep
        .translated
        .sites
        .iter()
        .zip(prep.pools.iter().zip(selection))
    {
        db2.declare(&site.name, rel.rtype().clone())?;
        let scan: Vec<&Tuple> = rel.iter().collect();
        for (g, &pick) in picks.iter().enumerate() {
            let t: Tuple = scan[grouping.group(g)[pick] as usize].clone();
            db2.insert(&site.name, t)?;
        }
    }
    let out = evaluate_with_options(
        &prep.fixed_program,
        &db2,
        &mut CanonicalOracle,
        &EvalOptions::default(),
    )?;
    let rel = out.relation(output).cloned().ok_or_else(|| {
        ChoiceError::Core(CoreError::Validation {
            clause: None,
            message: format!("output predicate {output} does not occur in the program"),
        })
    })?;
    Ok((rel, out.stats()))
}

/// Enumerate every intended model's answer for `output` (bounded).
///
/// ```
/// use std::sync::Arc;
/// use idlog_choice::{intended_models, ChoiceBudget};
/// use idlog_core::Interner;
/// use idlog_storage::Database;
///
/// let interner = Arc::new(Interner::new());
/// let program = idlog_core::parse_program(
///     "select_emp(N) :- emp(N, D), choice((D), (N)).",
///     &interner,
/// ).unwrap();
/// let mut db = Database::with_interner(Arc::clone(&interner));
/// db.insert_syms("emp", &["ann", "sales"]).unwrap();
/// db.insert_syms("emp", &["bob", "sales"]).unwrap();
///
/// let models =
///     intended_models(&program, &interner, &db, "select_emp", &ChoiceBudget::default())
///         .unwrap();
/// assert_eq!(models.len(), 2); // ann or bob
/// ```
pub fn intended_models(
    program: &Program,
    interner: &Arc<Interner>,
    db: &Database,
    output: &str,
    budget: &ChoiceBudget,
) -> ChoiceResult<AnswerSet> {
    let prep = prepare(program, interner, db)?;

    // Walk the product of per-group member choices across all sites.
    let group_sizes: Vec<Vec<usize>> = prep.pools.iter().map(|(_, g)| g.group_sizes()).collect();
    let mut selection: Vec<Vec<usize>> = group_sizes
        .iter()
        .map(|sizes| vec![0; sizes.len()])
        .collect();

    let mut relations = Vec::new();
    let mut models: u64 = 0;
    let mut complete = true;
    'outer: loop {
        models += 1;
        if models > budget.max_models {
            complete = false;
            break;
        }
        let (rel, _) = eval_with_selection(&prep, db, output, &selection)?;
        relations.push(rel);
        if relations.len() > budget.max_answers {
            // `collect` dedups; cap raw growth at the same bound to avoid
            // unbounded memory when every model differs.
            complete = false;
            break;
        }
        // Odometer over all (site, group) positions.
        for (si, sizes) in group_sizes.iter().enumerate() {
            for (gi, &size) in sizes.iter().enumerate() {
                if selection[si][gi] + 1 < size {
                    selection[si][gi] += 1;
                    continue 'outer;
                }
                selection[si][gi] = 0;
            }
        }
        break; // odometer wrapped: done
    }
    Ok(AnswerSet::collect(
        relations,
        complete,
        models.min(budget.max_models),
        interner,
    ))
}

/// Resolve one intended model. `seed: None` picks the canonically first
/// member of each group; `Some(s)` picks uniformly at random, reproducibly.
pub fn one_intended_model(
    program: &Program,
    interner: &Arc<Interner>,
    db: &Database,
    output: &str,
    seed: Option<u64>,
) -> ChoiceResult<(Relation, EvalStats)> {
    let prep = prepare(program, interner, db)?;
    let mut rng = seed.map(SmallRng::seed_from_u64);
    let selection: Vec<Vec<usize>> = prep
        .pools
        .iter()
        .map(|(_, grouping)| {
            grouping
                .group_sizes()
                .iter()
                .map(|&size| match &mut rng {
                    Some(rng) => rng.gen_range(0..size),
                    None => 0,
                })
                .collect()
        })
        .collect();
    let (rel, stats) = eval_with_selection(&prep, db, output, &selection)?;
    let mut total = prep.pool_stats;
    total += stats;
    Ok((rel, total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use idlog_parser::parse_program;

    fn setup(src: &str, facts: &[(&str, &[&str])]) -> (Program, Arc<Interner>, Database) {
        let interner = Arc::new(Interner::new());
        let program = parse_program(src, &interner).unwrap();
        let mut db = Database::with_interner(Arc::clone(&interner));
        for (pred, cols) in facts {
            db.insert_syms(pred, cols).unwrap();
        }
        (program, interner, db)
    }

    #[test]
    fn paper_select_emp_one_per_dept() {
        let (p, i, db) = setup(
            "select_emp(N) :- emp(N, D), choice((D), (N)).",
            &[
                ("emp", &["ann", "sales"]),
                ("emp", &["bob", "sales"]),
                ("emp", &["cay", "dev"]),
            ],
        );
        let all = intended_models(&p, &i, &db, "select_emp", &ChoiceBudget::default()).unwrap();
        assert!(all.complete());
        // 2 (sales) × 1 (dev) = 2 intended models, both with 2 employees.
        assert_eq!(all.len(), 2);
        for rel in all.iter() {
            assert_eq!(rel.len(), 2);
        }
        let strings = all.to_sorted_strings(&i);
        assert!(strings.contains(&vec!["(ann)".to_string(), "(cay)".to_string()]));
        assert!(strings.contains(&vec!["(bob)".to_string(), "(cay)".to_string()]));
    }

    #[test]
    fn paper_sex_guess_choice_program() {
        // Paper §3.2.2: the DATALOG^C program equivalent to Example 2.
        let (p, i, db) = setup(
            "sex_guess(X, male) :- person(X).
             sex_guess(X, female) :- person(X).
             sex(X, Y) :- sex_guess(X, Y), choice((X), (Y)).
             man(X) :- sex(X, male).
             woman(X) :- sex(X, female).",
            &[("person", &["a"]), ("person", &["b"])],
        );
        let all = intended_models(&p, &i, &db, "man", &ChoiceBudget::default()).unwrap();
        let strings = all.to_sorted_strings(&i);
        assert_eq!(
            strings,
            vec![
                vec![],
                vec!["(a)".to_string()],
                vec!["(a)".to_string(), "(b)".to_string()],
                vec!["(b)".to_string()],
            ]
        );
    }

    #[test]
    fn one_model_is_among_all_models() {
        let (p, i, db) = setup(
            "s(N) :- emp(N, D), choice((D), (N)).",
            &[
                ("emp", &["a", "x"]),
                ("emp", &["b", "x"]),
                ("emp", &["c", "y"]),
            ],
        );
        let all = intended_models(&p, &i, &db, "s", &ChoiceBudget::default()).unwrap();
        for seed in [None, Some(1), Some(2), Some(99)] {
            let (rel, _) = one_intended_model(&p, &i, &db, "s", seed).unwrap();
            let tuples: Vec<Tuple> = rel.iter().cloned().collect();
            assert!(all.contains_answer(&tuples), "seed {seed:?}");
        }
    }

    #[test]
    fn empty_input_has_one_empty_model() {
        let (p, i, db) = setup("s(N) :- emp(N, D), choice((D), (N)).", &[]);
        let all = intended_models(&p, &i, &db, "s", &ChoiceBudget::default()).unwrap();
        assert_eq!(all.len(), 1);
        assert!(all.iter().next().unwrap().is_empty());
    }

    #[test]
    fn budget_truncation_is_flagged() {
        let emps: Vec<(String, String)> =
            (0..6).map(|k| (format!("e{k}"), "d".to_string())).collect();
        let facts: Vec<(&str, Vec<&str>)> = emps
            .iter()
            .map(|(n, d)| ("emp", vec![n.as_str(), d.as_str()]))
            .collect();
        let interner = Arc::new(Interner::new());
        let program = parse_program("s(N) :- emp(N, D), choice((D), (N)).", &interner).unwrap();
        let mut db = Database::with_interner(Arc::clone(&interner));
        for (pred, cols) in &facts {
            db.insert_syms(pred, cols).unwrap();
        }
        let budget = ChoiceBudget {
            max_models: 3,
            max_answers: 1000,
        };
        let all = intended_models(&program, &interner, &db, "s", &budget).unwrap();
        assert!(!all.complete());
        assert!(all.len() <= 3);
    }

    #[test]
    fn global_choice_selects_single_tuple() {
        let (p, i, db) = setup(
            "s(N) :- emp(N, D), choice((), (N)).",
            &[("emp", &["a", "x"]), ("emp", &["b", "y"])],
        );
        let all = intended_models(&p, &i, &db, "s", &ChoiceBudget::default()).unwrap();
        assert_eq!(all.len(), 2);
        for rel in all.iter() {
            assert_eq!(rel.len(), 1);
        }
    }

    #[test]
    fn condition_violations_surface() {
        let (p, i, db) = setup(
            "p(X) :- a(X, Y), choice((X), (Y)).
             p(X) :- b(X, Y), choice((X), (Y)).",
            &[],
        );
        assert!(matches!(
            intended_models(&p, &i, &db, "p", &ChoiceBudget::default()),
            Err(ChoiceError::C2Violation { .. })
        ));
    }
}
