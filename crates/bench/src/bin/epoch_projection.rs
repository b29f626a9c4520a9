//! Extension: projects full training-epoch times on the §5.3 datasets
//! (Oxford Flowers; ImageNet 100k subset) per network and scheme.

use zcomp::experiments::epoch;
use zcomp_bench::{print_machine, print_table, Args, Flags};
use zcomp_dnn::dataset::Dataset;
use zcomp_dnn::models::ModelId;

fn main() {
    let args = Args::from_env(Flags::Figure);
    print_machine();
    for dataset in [Dataset::oxford_flowers(), Dataset::imagenet_subset()] {
        let result = epoch::run(dataset, &ModelId::ALL, args.scale);
        print_table(&result.table());
    }
}
