//! Serde support for the physical-layer types (feature `serde`).
//!
//! Explicit impls rather than derives (the offline serde shim has no
//! proc macro). `SinrParams` serializes as the `(α, β, N, ε)` tuple on
//! the geometric channel; a shadowed channel appends its
//! `(seed, σ_dB, clamp_dB)` triple. Deserialization re-validates the
//! parameter domains (`α > 2`, `β ≥ 1`, `N ≥ 0`, `ε > 0`) and the
//! shadowing (`σ > 0`, `clamp ≥ σ`).

use serde::{Deserialize, Error, Serialize, Value};

use crate::{ChannelModel, Shadowing, SinrParams};

impl Serialize for SinrParams {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            self.alpha().to_value(),
            self.beta().to_value(),
            self.noise().to_value(),
            self.epsilon().to_value(),
        ];
        if let ChannelModel::Shadowed(s) = self.channel() {
            fields.push((s.seed, s.sigma_db, s.clamp_db).to_value());
        }
        Value::Seq(fields)
    }
}

impl Deserialize for SinrParams {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let fields = match value {
            Value::Seq(fields) if fields.len() == 4 || fields.len() == 5 => fields,
            other => {
                return Err(Error::custom(format!(
                    "expected (α, β, N, ε[, shadowing]), got {other:?}"
                )))
            }
        };
        let num = |i: usize| f64::from_value(&fields[i]);
        let params = SinrParams::new(num(0)?, num(1)?, num(2)?, num(3)?).map_err(Error::custom)?;
        let Some(shadowing) = fields.get(4) else {
            return Ok(params);
        };
        let (seed, sigma_db, clamp_db) = <(u64, f64, f64)>::from_value(shadowing)?;
        let s = Shadowing::with_clamp(seed, sigma_db, clamp_db).map_err(Error::custom)?;
        Ok(params.with_channel(ChannelModel::Shadowed(s)))
    }
}
