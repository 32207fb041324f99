//! The §6.2 specialisation ablation.
//!
//! "When our code was more 'generic' (including a binary search loop for
//! each node), we found the performance to be 20% to 45% worse than the
//! specialized code." — const-generic `FullCssTree<u32, 16>` vs the
//! runtime-`m` `CssTree<u32, RuntimeFull>` over the same data and probes.

use ccindex_common::{SearchIndex, SortedArray};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use css_tree::{CssTree, FullCssTree, RuntimeFull};
use workload::{KeySetBuilder, LookupStream};

fn bench_ablation(c: &mut Criterion) {
    let n = 4_000_000usize;
    let keys: Vec<u32> = KeySetBuilder::new(n).build();
    let arr = SortedArray::from_slice(&keys);
    let stream = LookupStream::successful(&keys, 4_096, 99);
    let probes = stream.probes();

    let specialised = FullCssTree::<u32, 16>::from_shared(arr.clone());
    let generic = CssTree::new(RuntimeFull { m: 16 }, arr);

    let mut group = c.benchmark_group("ablation");
    group.sample_size(20);
    group.throughput(Throughput::Elements(probes.len() as u64));
    group.bench_function("specialised-m16", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for &p in probes {
                if specialised.search(p).is_some() {
                    found += 1;
                }
            }
            found
        })
    });
    group.bench_function("generic-m16", |b| {
        b.iter(|| {
            let mut found = 0usize;
            for &p in probes {
                if generic.search(p).is_some() {
                    found += 1;
                }
            }
            found
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
