//! Fig. 1: theoretical pathloss vs. synthetic measurement data,
//! board-to-board, 220–245 GHz.
//!
//! Series match the paper's legend: the computed log-distance models for
//! free space (n = 2.000) and parallel copper boards (fitted exponent), the
//! synthetic VNA "measurements" for both campaigns, and the bare free-space
//! pathloss with the ±antenna-gain reference curves.

use wi_bench::{fmt, help_flag, print_table};
use wi_channel::measurement::{copper_board_sweep, free_space_sweep};
use wi_channel::pathloss::PathlossModel;
use wi_channel::vna::SyntheticVna;

const USAGE: &str = "\
fig1_pathloss — theoretical pathloss versus synthetic measurements,
board-to-board, 220–245 GHz (Fig. 1)

USAGE:
    fig1_pathloss

FLAGS:
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    let vna = SyntheticVna::paper_default();
    let distances: Vec<f64> = (1..=20).map(|i| 0.01 * i as f64).collect();
    let free = free_space_sweep(&vna, &distances);
    let board_distances: Vec<f64> = (4..=20).map(|i| 0.01 * i as f64).collect();
    let boards = copper_board_sweep(&vna, &board_distances);

    let fs_model = PathlossModel::paper_free_space();
    let cb_model = boards.fit.into_model();

    println!("Fig. 1 — pathloss vs distance (232.5 GHz centre)");
    println!(
        "fitted exponents: free space n = {:.4} (paper 2.000), copper boards n = {:.4} (paper 2.0454)",
        free.fit.exponent, boards.fit.exponent
    );

    let rows: Vec<Vec<String>> = distances
        .iter()
        .map(|&d| {
            let measured_fs = free
                .samples
                .iter()
                .find(|s| (s.distance_m - d).abs() < 1e-9)
                .map(|s| s.pathloss_db);
            let measured_cb = boards
                .samples
                .iter()
                .find(|s| (s.distance_m - d).abs() < 1e-9)
                .map(|s| s.pathloss_db);
            vec![
                fmt(d * 1e3, 0),
                fmt(fs_model.pathloss_db(d), 2),
                fmt(cb_model.pathloss_db(d), 2),
                measured_fs.map(|v| fmt(v, 2)).unwrap_or_else(|| "-".into()),
                measured_cb.map(|v| fmt(v, 2)).unwrap_or_else(|| "-".into()),
                fmt(fs_model.pathloss_db(d) - 2.0 * 9.5, 2),
                fmt(fs_model.pathloss_db(d) - 2.0 * 12.0, 2),
            ]
        })
        .collect();
    print_table(
        "pathloss / dB",
        &[
            "d/mm",
            "model n=2.000",
            "model boards",
            "meas. freespace",
            "meas. boards",
            "+2x9.5dB horns",
            "+2x12dB arrays",
        ],
        &rows,
    );
}
