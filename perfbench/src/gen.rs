//! Seeded input generators. Every input the benchmark hands the program is
//! drawn here from the `--seed` argument, so one seed always yields the
//! same facts, node names and operation streams.

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream derived from this one, for a named purpose
    /// (one per client connection, one per generated relation).
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `n` distinct node names `<prefix><k>`, assigned to positions `0..n` in a
/// seeded order, so the interner sees a different symbol order per seed
/// while the graph shape stays the same.
pub fn node_names(rng: &mut Rng, prefix: &str, n: usize) -> Vec<String> {
    let mut ids: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut ids);
    ids.into_iter().map(|k| format!("{prefix}{k}")).collect()
}

/// A directed edge between two named nodes.
pub type Edge = (String, String);

/// A chain `names[0] -> names[1] -> ... -> names[n-1]`.
pub fn chain(names: &[String]) -> Vec<Edge> {
    names
        .windows(2)
        .map(|w| (w[0].clone(), w[1].clone()))
        .collect()
}

/// A sparse random DAG on `names`, split into `blocks` equal independent
/// components so the closure size varies little from seed to seed. Within
/// a block, node `i` hangs below a parent drawn from the `window` block
/// nodes before it, and a share `extra` of nodes gets one more such
/// in-edge.
pub fn sparse_dag(
    rng: &mut Rng,
    names: &[String],
    blocks: usize,
    window: usize,
    extra: f64,
) -> Vec<Edge> {
    let block = names.len().div_ceil(blocks.max(1));
    let mut edges = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for i in 0..names.len() {
        let first = i - i % block;
        if i == first {
            continue;
        }
        let lo = first.max(i.saturating_sub(window));
        let mut add = |rng: &mut Rng| {
            let p = lo + rng.below(i - lo);
            if seen.insert((p, i)) {
                edges.push((names[p].clone(), names[i].clone()));
            }
        };
        add(rng);
        if rng.unit() < extra {
            add(rng);
        }
    }
    edges
}

/// A random recursive tree: node `i > 0` hangs below a uniformly drawn
/// earlier node. Returns `(parent, child)` index pairs.
pub fn random_tree(rng: &mut Rng, n: usize) -> Vec<(usize, usize)> {
    (1..n).map(|i| (rng.below(i), i)).collect()
}

/// `emp(Name, Dept)` with skewed department sizes: `skewed` departments
/// share `employees - singletons` employees with density falling like
/// `1/sqrt(rank)`, and `singletons` further departments have exactly one
/// employee each. Returns `(name, dept)` pairs.
pub fn employees(
    rng: &mut Rng,
    employees: usize,
    skewed: usize,
    singletons: usize,
) -> Vec<(String, String)> {
    let mut depts: Vec<usize> = (0..skewed + singletons).collect();
    rng.shuffle(&mut depts);
    let mut out = Vec::with_capacity(employees);
    for i in 0..employees - singletons {
        let u = rng.unit();
        let d = ((u * u) * skewed as f64) as usize;
        out.push((format!("e{i}"), format!("d{}", depts[d.min(skewed - 1)])));
    }
    for s in 0..singletons {
        let i = employees - singletons + s;
        out.push((format!("e{i}"), format!("d{}", depts[skewed + s])));
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = employees(&mut Rng::new(7), 500, 20, 5);
        let b = employees(&mut Rng::new(7), 500, 20, 5);
        let c = employees(&mut Rng::new(8), 500, 20, 5);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 500);
    }

    #[test]
    fn dag_edges_point_forward() {
        let names = node_names(&mut Rng::new(1), "g", 50);
        let pos: std::collections::HashMap<_, _> =
            names.iter().enumerate().map(|(i, n)| (n, i)).collect();
        for (a, b) in sparse_dag(&mut Rng::new(2), &names, 3, 5, 0.5) {
            assert!(pos[&a] < pos[&b]);
        }
    }
}
