//! Table I: link budget parameters for board-to-board communications.

use wi_bench::{fmt, help_flag, print_table};
use wi_channel::pathloss::PathlossModel;
use wi_linkbudget::budget::LinkBudget;

const USAGE: &str = "\
table1_link_budget — link budget parameters for board-to-board links
(Table I)

USAGE:
    table1_link_budget

FLAGS:
    --help, -h           print this help";

fn main() {
    help_flag(USAGE);
    let model = PathlossModel::paper_free_space();
    let budget = LinkBudget::paper_longest_link_butler();

    let mut rows: Vec<Vec<String>> = budget
        .table()
        .into_iter()
        .map(|l| vec![l.name, l.unit, fmt(l.value, 1)])
        .collect();
    // The paper lists both extreme pathlosses explicitly.
    rows.insert(
        1,
        vec![
            "Path loss for shortest link 0.1m (232.5 GHz)".into(),
            "dB".into(),
            fmt(model.pathloss_db(0.1), 1),
        ],
    );
    rows.insert(
        2,
        vec![
            "Path loss for largest link 0.3m (232.5 GHz)".into(),
            "dB".into(),
            fmt(model.pathloss_db(0.3), 1),
        ],
    );
    rows.insert(
        3,
        vec![
            "Path loss exponent".into(),
            "-".into(),
            fmt(model.exponent, 0),
        ],
    );
    print_table(
        "Table I — link budget parameters",
        &["parameter", "unit", "value"],
        &rows,
    );

    println!("\npaper values: PL(0.1 m) = 59.8 dB, PL(0.3 m) = 69.3 dB, NF = 10 dB, array 12 dB,");
    println!("Butler 5 dB, polarization 3 dB, implementation 5 dB, T_RX = 323 K");
}
