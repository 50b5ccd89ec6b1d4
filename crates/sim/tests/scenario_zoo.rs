//! The checked-in scenario zoo must stay loadable and runnable: every
//! `scenarios/*.toml` parses, validates, matches its file name and its
//! README catalog row, and runs to completion under a small epoch cap.
//! This is the in-tree twin of CI's `scenario-smoke` job (which runs the
//! full specs through the `run_scenario` binary).

use std::path::PathBuf;

use rths_sim::ScenarioSpec;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn zoo_dir() -> PathBuf {
    repo_root().join("scenarios")
}

/// The scenario names in the README's catalog: the first cell of each row
/// of the table under `## Scenario zoo`, sorted.
fn readme_catalog() -> Vec<String> {
    let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md");
    let section =
        readme.split("## Scenario zoo").nth(1).expect("README has a `## Scenario zoo` section");
    let mut names: Vec<String> = section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| Some(row.strip_prefix("| `")?.split('`').next()?.to_owned()))
        .collect();
    names.sort();
    names
}

fn zoo() -> Vec<(String, ScenarioSpec)> {
    let mut specs = Vec::new();
    for entry in std::fs::read_dir(zoo_dir()).expect("scenarios/ exists") {
        let path = entry.expect("readable dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let spec = ScenarioSpec::load(&path)
            .unwrap_or_else(|e| panic!("{} failed to load: {e}", path.display()));
        specs.push((stem, spec));
    }
    specs.sort_by(|a, b| a.0.cmp(&b.0));
    specs
}

#[test]
fn the_zoo_is_complete_and_names_match_files() {
    let specs = zoo();
    let files: Vec<&str> = specs.iter().map(|(stem, _)| stem.as_str()).collect();
    assert!(!files.is_empty(), "scenarios/ holds no .toml file");
    assert_eq!(
        files,
        readme_catalog(),
        "every scenarios/*.toml needs a README catalog row, and every row a file"
    );
    for (stem, spec) in &specs {
        assert_eq!(spec.name(), stem, "spec name must match its file name");
        assert!(!spec.description().is_empty(), "{stem}: zoo entries document themselves");
    }
}

#[test]
fn every_zoo_scenario_runs_under_a_small_cap() {
    for (stem, spec) in zoo() {
        let capped = spec.with_epoch_cap(12);
        let report = capped.run();
        assert_eq!(report.name, stem);
        assert!(report.epochs >= 1 && report.epochs <= 12, "{stem}: cap not honored");
        assert!(report.welfare.iter().all(|w| w.is_finite()), "{stem}: non-finite welfare");
        assert!(report.final_population > 0, "{stem}: population collapsed");
    }
}

#[test]
fn zoo_runs_are_deterministic() {
    for (stem, spec) in zoo() {
        let a = spec.clone().with_epoch_cap(10).run();
        let b = spec.with_epoch_cap(10).run();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a.welfare),
            bits(&b.welfare),
            "{stem}: scenario runs must be bit-reproducible"
        );
    }
}
