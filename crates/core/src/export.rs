//! CSV export of figure data, for external plotting.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use mlscore_data::DatasetSpec;

use crate::figures::{self, CurveSet, Fig11Row, Fig7Result};
use crate::shmoo::ShmooTable;

/// Writes a Fig. 7 panel: one row per (configuration, stage).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_fig7_csv<W: Write>(results: &[Fig7Result], mut writer: W) -> io::Result<()> {
    writeln!(writer, "dataset,trees,depth,records,stage,seconds")?;
    for r in results {
        for (stage, d) in r.breakdown.iter() {
            writeln!(
                writer,
                "{},{},{},{},{},{}",
                r.dataset.name(),
                r.n_trees,
                r.depth,
                r.n_records,
                stage,
                d.as_secs()
            )?;
        }
    }
    Ok(())
}

/// Writes a Fig. 9/10 panel: one row per record count, one column per
/// backend (latency in seconds; throughput derives as records/latency).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_curves_csv<W: Write>(curves: &CurveSet, mut writer: W) -> io::Result<()> {
    let names: Vec<&str> = curves.series.iter().map(|s| s.name.as_str()).collect();
    writeln!(writer, "records,{}", names.join(","))?;
    for (i, &n) in curves.records.iter().enumerate() {
        let cells: Vec<String> = curves
            .series
            .iter()
            .map(|s| s.totals[i].as_secs().to_string())
            .collect();
        writeln!(writer, "{n},{}", cells.join(","))?;
    }
    Ok(())
}

/// Writes a shmoo grid: one row per cell.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_shmoo_csv<W: Write>(table: &ShmooTable, mut writer: W) -> io::Result<()> {
    writeln!(writer, "dataset,records,trees,winner,family,speedup")?;
    for (i, &records) in table.record_counts.iter().enumerate() {
        for (j, &trees) in table.tree_counts.iter().enumerate() {
            let cell = &table.cells[i][j];
            writeln!(
                writer,
                "{},{records},{trees},{},{},{}",
                table.dataset.name(),
                cell.winner,
                cell.family(),
                cell.speedup
            )?;
        }
    }
    Ok(())
}

/// Writes a Fig. 11 table: one row per (backend, stage).
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_fig11_csv<W: Write>(rows: &[Fig11Row], mut writer: W) -> io::Result<()> {
    writeln!(writer, "backend,stage,seconds")?;
    for row in rows {
        for (stage, d) in row.breakdown.iter() {
            writeln!(writer, "{},{},{}", row.backend, stage, d.as_secs())?;
        }
    }
    Ok(())
}

/// Regenerates every figure and writes one CSV per figure into `dir`
/// (created if missing). Returns the file names written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_all(dir: &Path) -> io::Result<Vec<String>> {
    fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut save =
        |name: &str, body: &dyn Fn(&mut dyn Write) -> io::Result<()>| -> io::Result<()> {
            let path = dir.join(name);
            let mut file = fs::File::create(&path)?;
            body(&mut file)?;
            written.push(name.to_string());
            Ok(())
        };

    save("fig7a.csv", &|w| write_fig7_csv(&figures::fig7a(), w))?;
    save("fig7b.csv", &|w| write_fig7_csv(&figures::fig7b(), w))?;
    for dataset in DatasetSpec::all() {
        let table = ShmooTable::paper_grid(dataset);
        save(
            &format!("fig8_{}.csv", dataset.name().to_lowercase()),
            &|w| write_shmoo_csv(&table, w),
        )?;
    }
    for panel in figures::fig9_all() {
        let name = format!(
            "fig9_{}_{}trees_{}levels.csv",
            panel.dataset.name().to_lowercase(),
            panel.n_trees,
            panel.depth
        );
        save(&name, &|w| write_curves_csv(&panel, w))?;
    }
    let fig11 = figures::fig11(DatasetSpec::Higgs, 128, 10, 1_000_000);
    save("fig11_higgs_128t_1m.csv", &|w| write_fig11_csv(&fig11, w))?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_csv_has_all_stages() {
        let mut buf = Vec::new();
        write_fig7_csv(&[figures::fig7(DatasetSpec::Iris, 1, 10, 1)], &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for stage in mlscore_sim::Stage::fpga_breakdown_order() {
            let stage = stage.to_string();
            assert!(text.contains(&stage), "missing {stage}");
        }
        assert!(text.starts_with("dataset,trees,depth,records,stage,seconds"));
    }

    #[test]
    fn curves_csv_is_rectangular() {
        let panel = figures::fig9_over(DatasetSpec::Higgs, 1, 6, &[1, 100]);
        let mut buf = Vec::new();
        write_curves_csv(&panel, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 record counts
        let cols = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols);
        }
    }

    #[test]
    fn shmoo_csv_enumerates_cells() {
        let table = ShmooTable::build(DatasetSpec::Iris, 10, &[1, 128], &[1, 1_000_000]);
        let mut buf = Vec::new();
        write_shmoo_csv(&table, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1 + 4);
        assert!(text.contains("IRIS,1000000,128,"));
    }

    #[test]
    fn fig11_csv_lists_backends() {
        let rows = figures::fig11(DatasetSpec::Iris, 1, 6, 10);
        let mut buf = Vec::new();
        write_fig11_csv(&rows, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("CPU"));
        assert!(text.contains("FPGA"));
        assert!(text.contains("python invocation"));
    }

    #[test]
    fn save_all_writes_every_figure() {
        let dir = std::env::temp_dir().join(format!("mlscore_export_{}", std::process::id()));
        let written = save_all(&dir).unwrap();
        // 2 fig7 + 2 fig8 + 8 fig9 + 1 fig11 = 13 files.
        assert_eq!(written.len(), 13);
        for name in &written {
            let meta = std::fs::metadata(dir.join(name)).unwrap();
            assert!(meta.len() > 0, "{name} is empty");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
