//! Generating-function expansion: exact sparse product, its
//! threshold-pruned tail, and dense grid convolution, scaling with the
//! number of factors (query length).
//!
//! Feeds DESIGN.md experiment E10 (ablation-grid): the exact expansion is
//! exponential in the factor count, the grid linear — the crossover is
//! what this bench locates.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seu_poly::{GridPoly, SparsePoly};
use std::hint::black_box;

/// A paper-six-like factor: six spikes plus remainder.
fn factor(i: usize) -> Vec<(f64, f64)> {
    let base = 0.04 + 0.013 * (i % 7) as f64;
    vec![
        (0.002, base * 6.0),
        (0.04, base * 4.0),
        (0.05, base * 3.0),
        (0.10, base * 2.0),
        (0.08, base * 1.5),
        (0.06, base),
    ]
}

fn bench_exact_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_product_by_factors");
    for r in [2usize, 4, 6, 8, 10] {
        let factors: Vec<SparsePoly> = (0..r)
            .map(|i| SparsePoly::spike_factor(factor(i)))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(r), &factors, |b, fs| {
            b.iter(|| {
                let g = SparsePoly::product(black_box(fs));
                g.tail_above(0.3).mass
            })
        });
    }
    group.finish();
}

fn bench_pruned_tail_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("tail_of_product");
    for r in [6usize, 8, 10] {
        let factors: Vec<SparsePoly> = (0..r)
            .map(|i| SparsePoly::spike_factor(factor(i)))
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(r), &factors, |b, fs| {
            b.iter(|| SparsePoly::tail_of_product(black_box(fs), 0.3).0.mass)
        });
    }
    group.finish();
}

fn bench_grid_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_convolve_by_factors");
    for r in [2usize, 4, 6, 8, 10, 16] {
        let spikes: Vec<Vec<(f64, f64)>> = (0..r).map(factor).collect();
        group.bench_with_input(BenchmarkId::from_parameter(r), &spikes, |b, fs| {
            b.iter(|| {
                let mut g = GridPoly::identity(2.0, 1024);
                for f in fs {
                    g.convolve_spikes(black_box(f));
                }
                g.tail_above(0.3).mass
            })
        });
    }
    group.finish();
}

fn bench_grid_resolution(c: &mut Criterion) {
    let spikes: Vec<Vec<(f64, f64)>> = (0..6).map(factor).collect();
    let mut group = c.benchmark_group("grid_convolve_by_cells");
    for cells in [128usize, 512, 2048, 8192] {
        group.bench_with_input(BenchmarkId::from_parameter(cells), &cells, |b, &cells| {
            b.iter(|| {
                let mut g = GridPoly::identity(2.0, cells);
                for f in &spikes {
                    g.convolve_spikes(f);
                }
                g.tail_above(0.3).mass
            })
        });
    }
    group.finish();
}

fn bench_compact(c: &mut Criterion) {
    let factors: Vec<SparsePoly> = (0..8)
        .map(|i| SparsePoly::spike_factor(factor(i)))
        .collect();
    let big = SparsePoly::product(&factors);
    c.bench_function("compact_to_256", |b| {
        b.iter(|| {
            let mut g = big.clone();
            g.compact_to(black_box(256));
            g.len()
        })
    });
}

criterion_group!(
    benches,
    bench_exact_scaling,
    bench_pruned_tail_scaling,
    bench_grid_scaling,
    bench_grid_resolution,
    bench_compact
);
criterion_main!(benches);
