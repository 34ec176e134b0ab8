//! Pinned reference values, read from `perfbench/reference.json` (embedded
//! at build time, so the benchmark reads no file at run time).

/// The reference document.
pub const JSON: &str = include_str!("../reference.json");

/// Reference device error rates, keyed by clock period.
pub struct Reference {
    device: Vec<(f64, f64)>,
}

impl Reference {
    /// Parses the `device_error_rates` points of [`JSON`]: each carries a
    /// `"t_clk_s"` number and the rate's IEEE-754 bits as a `"bits"` hex
    /// string.
    ///
    /// # Errors
    ///
    /// Returns a message when a point is malformed.
    pub fn load() -> Result<Reference, String> {
        let section = JSON
            .split_once("\"device_error_rates\"")
            .map(|(_, rest)| rest)
            .ok_or("reference.json has no device_error_rates")?;
        let mut device = Vec::new();
        for point in section.split("\"t_clk_s\":").skip(1) {
            let t_clk = point
                .split([',', '}'])
                .next()
                .and_then(|v| v.trim().parse::<f64>().ok())
                .ok_or("reference.json: bad t_clk_s")?;
            let bits = point
                .split_once("\"bits\":")
                .and_then(|(_, rest)| rest.split('"').nth(1))
                .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
                .ok_or("reference.json: bad bits")?;
            device.push((t_clk, f64::from_bits(bits)));
        }
        Ok(Reference { device })
    }

    /// The pinned error rate at clock period `t_clk` (s).
    pub fn device_rate(&self, t_clk: f64) -> Option<f64> {
        self.device
            .iter()
            .find(|(t, _)| t.to_bits() == t_clk.to_bits())
            .map(|&(_, rate)| rate)
    }
}
