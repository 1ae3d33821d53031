//! Small, dependency-free samplers built on `rand::Rng` via inverse-
//! transform and Box-Muller. (The approved crate list contains `rand` but
//! not `rand_distr`; these three distributions are all the generators need.)

use rand::Rng;

/// Exponential variate with the given rate (mean `1/rate`).
///
/// # Panics
/// Panics when `rate` is not strictly positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

/// Standard normal via Box-Muller.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    mean + std * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal with the given parameters of the underlying normal.
pub fn lognormal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn exponential_mean_is_one_over_rate() {
        let mut r = rng();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r, 10.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1);
        assert!((var.sqrt() - 3.0).abs() < 0.1);
    }

    #[test]
    fn lognormal_is_positive() {
        let mut r = rng();
        assert!((0..1000).all(|_| lognormal(&mut r, 0.0, 1.0) > 0.0));
    }

    #[test]
    fn determinism_under_seed() {
        let a: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..10).map(|_| exponential(&mut r, 1.0)).collect()
        };
        let b: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..10).map(|_| exponential(&mut r, 1.0)).collect()
        };
        assert_eq!(a, b);
    }
}
