//! Regenerates every experiment table in sequence.
//! Flags: --quick --trials N --seed S --csv.
fn main() {
    rumor_bench::run_all_and_print();
}
