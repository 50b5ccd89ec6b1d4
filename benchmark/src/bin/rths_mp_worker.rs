//! Worker process of the multi-process workload. `run_multiproc` looks for
//! an executable of this name beside the running one, so building it in
//! this package puts it beside `rths_benchmark` with no environment
//! variable involved. It is launched by `run_multiproc`, never by hand.

fn main() {
    rths_net::multiproc::worker_main();
}
