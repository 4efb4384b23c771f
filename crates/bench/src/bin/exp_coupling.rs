//! Regenerates experiment e11. Flags: --quick --trials N --seed S --csv.
fn main() {
    rumor_bench::run_and_print("e11");
}
