//! The statistics helpers and the self-time arithmetic.

use wb_perfbench::stats::{median, quartile_spread, quartiles, tail};
use wb_perfbench::trace::{covered_ns, self_time_ns};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn median_of_odd_even_and_empty_lists() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[7.0]), 7.0);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn tail_keeps_ten_samples_beyond_it() {
    let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
    let t = tail(&xs);
    assert_eq!(t.value, 90.0, "ten samples (91..=100) lie beyond it");
    assert!(close(t.percentile, 90.0));
    assert_eq!(t.samples, 100);

    let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&xs);
    assert_eq!(t.value, 990.0);
    assert!(close(t.percentile, 99.0));

    // 40 samples: the sample with ten beyond it is p75.
    let xs: Vec<f64> = (1..=40).map(f64::from).collect();
    let t = tail(&xs);
    assert_eq!(t.value, 30.0);
    assert!(close(t.percentile, 75.0));
}

#[test]
fn tail_of_few_samples_is_the_maximum() {
    let t = tail(&[0.4, 0.9, 0.5]);
    assert_eq!(t.value, 0.9);
    assert_eq!(t.percentile, 100.0);
    assert_eq!(t.samples, 3);
    // With 21 samples the ten-beyond rank is the median: the maximum
    // stands in. With 22 it is the first rank above the median.
    let xs: Vec<f64> = (1..=21).map(f64::from).collect();
    assert_eq!(tail(&xs).value, 21.0);
    let xs: Vec<f64> = (1..=22).map(f64::from).collect();
    assert_eq!(tail(&xs).value, 12.0);
    assert_eq!(tail(&[]).samples, 0);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from Python's `statistics.quantiles(xs, n=4)`.
    type Case<'a> = (&'a [f64], (f64, f64, f64));
    let cases: [Case; 4] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            (2.75, 5.5, 8.25),
        ),
        (&[1.0, 2.0], (0.75, 1.5, 2.25)),
        (&[3.0, 1.0, 2.0], (1.0, 2.0, 3.0)),
        (&[0.5, 0.9, 0.7, 0.6, 1.3], (0.55, 0.7, 1.1)),
    ];
    for (xs, (q1, q2, q3)) in cases {
        let (a, b, c) = quartiles(xs).expect("two or more samples");
        assert!(close(a, q1) && close(b, q2) && close(c, q3), "{xs:?}");
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn quartile_spread_is_iqr_over_median() {
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!(close(quartile_spread(&xs).unwrap(), (8.25 - 2.75) / 5.5));
    assert_eq!(quartile_spread(&[2.0, 2.0, 2.0, 2.0]), Some(0.0));
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // Children on two threads overlap (10..30 and 20..50, as in the
    // parallel compose); 90..120 sticks out of the parent and is clipped.
    let mut children = vec![(90, 120), (20, 50), (60, 70), (10, 30)];
    assert_eq!(covered_ns(0, 100, &mut children), 40 + 10 + 10);
    assert_eq!(self_time_ns((0, 100), &mut children), 40);
}

#[test]
fn self_time_of_nested_and_missing_children() {
    // A child inside another child covers nothing new.
    let mut nested = vec![(10, 60), (20, 30), (10, 60)];
    assert_eq!(self_time_ns((0, 100), &mut nested), 50);
    assert_eq!(self_time_ns((5, 25), &mut []), 20);
    // Back-to-back children leave no gap.
    let mut adjacent = vec![(0, 50), (50, 100)];
    assert_eq!(self_time_ns((0, 100), &mut adjacent), 0);
}
