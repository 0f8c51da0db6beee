//! Fig 1: the weight distribution of AlexNet conv2 under (a) full
//! precision, (b) 4-bit linear quantization, and (c) 4-bit outlier-aware
//! quantization — the motivating picture: linear quantization wastes its 16
//! levels spanning the outliers, outlier-aware quantization spends them on
//! the bulk.

use crate::prep::{default_scale, synth_config, zoo_config, DEFAULT_SEED};
use crate::report::{bar, num, table};
use ola_nn::network::WeightStore;
use ola_nn::synth::{synthesized_weights, weight_population};
use ola_nn::zoo;
use ola_quant::linear::LinearQuantizer;
use ola_quant::metrics::sqnr_db;
use ola_quant::outlier::OutlierQuantizer;
use ola_sim::timing;
use ola_tensor::stats::Histogram;

/// AlexNet's conv2 weights at `scale` (the layer the paper plots): the
/// prepared network's conv2, synthesized alone under its
/// [`synth_config`]. Only conv1 is synthesized before it; no forward runs.
fn conv2_weights(scale: usize) -> WeightStore {
    timing::timed(timing::Phase::Synthesize, || {
        let net = zoo::by_name("alexnet", &zoo_config(scale));
        let conv2 = net
            .nodes()
            .iter()
            .position(|n| n.name == "conv2")
            .expect("alexnet has conv2");
        let cfg = synth_config("alexnet", DEFAULT_SEED);
        let mut weights = synthesized_weights(&net, &cfg);
        weights
            .find_map(|(id, w)| (id == conv2).then_some(w))
            .expect("conv2 has weights")
    })
}

fn histogram_rows(values: &[f32], lo: f64, hi: f64, bins: usize) -> Vec<Vec<String>> {
    let mut h = Histogram::new(lo, hi, bins);
    h.extend(values.iter().copied());
    let max = h.counts().iter().copied().max().unwrap_or(1).max(1);
    (0..bins)
        .map(|i| {
            let count = h.counts()[i];
            // Log-scale bar, like the paper's log-count axis.
            let frac = if count == 0 {
                0.0
            } else {
                (count as f64).ln() / (max as f64).ln()
            };
            vec![num(h.bin_center(i)), format!("{count}"), bar(frac, 30)]
        })
        .collect()
}

/// Computes and formats Fig 1.
pub fn run(fast: bool) -> String {
    let conv2 = conv2_weights(default_scale("alexnet", fast));
    let weights: Vec<f32> = weight_population(&conv2)
        .iter()
        .copied()
        .filter(|&v| v != 0.0)
        .collect();

    let span = weights.iter().fold(0.0_f32, |m, &v| m.max(v.abs())) as f64;
    let full = histogram_rows(&weights, -span, span, 32);

    let lin = LinearQuantizer::fit_symmetric(4, &weights).expect("non-zero weights");
    let lin_vals = lin.fake_quantize(&weights);
    let lin_hist = histogram_rows(&lin_vals, -span, span, 32);

    let ola = OutlierQuantizer::fit(&weights, 0.035, 4, 8);
    let ola_vals = ola.fake_quantize(&weights);
    let ola_hist = histogram_rows(&ola_vals, -span, span, 32);

    let lin_sqnr = sqnr_db(&weights, &lin_vals);
    let ola_sqnr = sqnr_db(&weights, &ola_vals);

    format!(
        "=== Fig 1: AlexNet conv2 weight distribution (log-scale bars) ===\n\
         (a) full precision:\n{}\n(b) 4-bit linear (SQNR {:.1} dB):\n{}\n\
         (c) 4-bit outlier-aware, 3.5% outliers (SQNR {:.1} dB):\n{}\n\
         Linear quantization collapses the bulk onto a handful of coarse levels spanning\n\
         the outliers; outlier-aware keeps a fine grid for the bulk and exact outliers.\n",
        table(&["center", "count", "log count"], &full),
        lin_sqnr,
        table(&["center", "count", "log count"], &lin_hist),
        ola_sqnr,
        table(&["center", "count", "log count"], &ola_hist),
    )
}

#[cfg(test)]
mod tests {
    use crate::prep::{default_scale, PrepCache, DEFAULT_SEED};
    use ola_nn::network::WeightStore;

    fn bits(weights: &WeightStore) -> Vec<u32> {
        match weights {
            WeightStore::Dense(t) => t.as_slice().iter().map(|v| v.to_bits()).collect(),
            WeightStore::RowGen(_) => panic!("conv2 is dense"),
        }
    }

    /// The conv2 fig1 synthesizes alone is the prepared network's conv2,
    /// bit for bit. (The prepared network is the process-wide one, so
    /// fig16's test shares its build.)
    #[test]
    fn synthesized_conv2_is_the_prepared_networks() {
        let scale = default_scale("alexnet", true);
        let prep = PrepCache::global().prepared("alexnet", scale, DEFAULT_SEED);
        let conv2 = prep
            .net
            .nodes()
            .iter()
            .position(|n| n.name == "conv2")
            .unwrap();
        let prepared = prep.params.weights(conv2).expect("conv2 has weights");
        assert_eq!(bits(&super::conv2_weights(scale)), bits(prepared));
    }

    #[test]
    fn outlier_sqnr_beats_linear() {
        let r = super::run(true);
        assert!(r.contains("full precision"));
        // Extract the two SQNR numbers and compare.
        let lin: f64 = r
            .split("linear (SQNR ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("linear SQNR in report");
        let ola: f64 = r
            .split("outliers (SQNR ")
            .nth(1)
            .and_then(|s| s.split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("outlier SQNR in report");
        assert!(ola > lin + 3.0, "outlier-aware {ola} dB vs linear {lin} dB");
    }
}
