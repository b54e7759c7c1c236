//! "Did you mean ...?" suggestions for unknown names.
//!
//! Shared by [`crate::catalog::CatalogError`] and the `dbox lint` analyzer:
//! both resolve user-typed type names against a known set and want a
//! nearest-match hint on failure.

/// Edit distance with adjacent transpositions counting as one edit
/// (optimal string alignment), case-insensitive — `Fna` is one typo away
/// from `Fan`, not two.
fn distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().flat_map(char::to_lowercase).collect();
    let b: Vec<char> = b.chars().flat_map(char::to_lowercase).collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev2: Vec<usize> = vec![0; b.len() + 1];
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            let mut best = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
            if i > 0 && j > 0 && *ca == b[j - 1] && a[i - 1] == *cb {
                best = best.min(prev2[j - 1] + 1);
            }
            cur[j + 1] = best;
        }
        std::mem::swap(&mut prev2, &mut prev);
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The candidate closest to `target`, if any is close enough to plausibly
/// be a typo (distance ≤ ⌈len/3⌉, and ≤ 3 absolute).
pub fn nearest<'a, I>(target: &str, candidates: I) -> Option<&'a str>
where
    I: IntoIterator<Item = &'a str>,
{
    let budget = target.chars().count().div_ceil(3).clamp(1, 3);
    candidates
        .into_iter()
        .map(|c| (distance(target, c), c))
        .filter(|(d, _)| *d <= budget)
        .min_by_key(|(d, c)| (*d, c.to_string()))
        .map(|(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distances() {
        assert_eq!(distance("", ""), 0);
        assert_eq!(distance("abc", "abc"), 0);
        assert_eq!(distance("abc", "abd"), 1);
        assert_eq!(distance("kitten", "sitting"), 3);
        assert_eq!(distance("Lamp", "lamp"), 0, "case-insensitive");
    }

    #[test]
    fn nearest_finds_typos() {
        let kinds = ["Lamp", "Fan", "Hvac", "Occupancy", "Thermostat"];
        assert_eq!(nearest("Lmap", kinds), Some("Lamp"));
        assert_eq!(nearest("occupancy", kinds), Some("Occupancy"));
        assert_eq!(nearest("Thermostat2", kinds), Some("Thermostat"));
        assert_eq!(nearest("Televison", kinds), None, "nothing close enough");
        assert_eq!(nearest("Fna", kinds), Some("Fan"));
    }

    #[test]
    fn short_names_get_a_tight_budget() {
        // one edit allowed on very short names, no more
        assert_eq!(nearest("Fb", ["Fa", "Go"]), Some("Fa"));
        assert_eq!(nearest("Xy", ["Fa"]), None);
    }
}
