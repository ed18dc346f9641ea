//! Regenerates **Table X**: peak heap consumption (megabytes) of one
//! generation per algorithm × dataset at ε = 1, measured with the
//! counting global allocator (the offline equivalent of the paper's OS
//! memory readings: it counts heap bytes above the live baseline at the
//! start of each generation, so one generation's peak is not blurred by
//! the rest of the run).

use pgb_bench::{load_datasets, suite, CountingAllocator, HarnessArgs};
use pgb_core::benchmark::TextTable;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn main() {
    let args = HarnessArgs::from_env();
    let datasets = load_datasets(args.seed);
    let algorithms = suite();
    println!("Table X — peak heap per generation (MB), ε = 1\n");
    let mut headers = vec!["Graph".to_string(), "CSR".to_string()];
    headers.extend(algorithms.iter().map(|a| a.name().to_string()));
    let mut table = TextTable::new(headers);
    for (name, graph) in &datasets {
        eprintln!("measuring on {name} ({} nodes)...", graph.node_count());
        // Resident footprint of the dataset's CSR arrays themselves — the
        // floor any generation's peak sits on top of.
        let mut row = vec![name.clone(), pgb_bench::alloc_counter::format_mb(graph.heap_bytes())];
        for algo in &algorithms {
            let (_, peak) = CountingAllocator::measure(|| {
                let mut rng = StdRng::seed_from_u64(args.seed);
                algo.generate(graph, 1.0, &mut rng).expect("valid inputs")
            });
            row.push(pgb_bench::alloc_counter::format_mb(peak));
        }
        table.add_row(row);
    }
    println!("{}", table.render());
}
