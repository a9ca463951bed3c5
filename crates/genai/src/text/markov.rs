//! Order-2 Markov chain over words: the language model core of the text
//! expansion substitute.

use crate::rng::Rng;
use std::collections::HashMap;

/// A trained order-2 word chain.
#[derive(Debug, Clone)]
pub struct MarkovChain {
    /// (w1, w2) → possible next words (with multiplicity = frequency).
    transitions: HashMap<(String, String), Vec<String>>,
    /// Bigrams that can start a sentence.
    starters: Vec<(String, String)>,
}

impl MarkovChain {
    /// Train on a set of passages.
    pub(crate) fn train(passages: &[&str]) -> MarkovChain {
        let mut transitions: HashMap<(String, String), Vec<String>> = HashMap::new();
        let mut starters = Vec::new();
        for passage in passages {
            for sentence in passage.split('.') {
                let words: Vec<String> = sentence
                    .split_whitespace()
                    .map(|w| w.trim_matches(|c: char| c == ',' || c == ';').to_owned())
                    .filter(|w| !w.is_empty())
                    .collect();
                if words.len() < 3 {
                    continue;
                }
                starters.push((words[0].to_lowercase(), words[1].to_lowercase()));
                for window in words.windows(3) {
                    let key = (window[0].to_lowercase(), window[1].to_lowercase());
                    transitions
                        .entry(key)
                        .or_default()
                        .push(window[2].to_lowercase());
                }
            }
        }
        MarkovChain {
            transitions,
            starters,
        }
    }

    /// Generate approximately `target_words` words of text. Sentences are
    /// capped so the chain cannot wander unboundedly between periods.
    pub(crate) fn generate(&self, target_words: usize, rng: &mut Rng) -> Vec<String> {
        let mut out: Vec<String> = Vec::with_capacity(target_words + 16);
        while out.len() < target_words {
            let (w1, w2) = self.starters[rng.below(self.starters.len())].clone();
            out.push(w1);
            out.push(w2);
            let mut sentence_len = 2usize;
            loop {
                let key = (out[out.len() - 2].clone(), out[out.len() - 1].clone());
                let Some(nexts) = self.transitions.get(&key) else {
                    break;
                };
                let next = nexts[rng.below(nexts.len())].clone();
                out.push(next);
                sentence_len += 1;
                // End the sentence at a natural length.
                if sentence_len >= 9 && rng.uniform() < 0.18 || sentence_len >= 26 {
                    break;
                }
                if out.len() >= target_words + 8 {
                    break;
                }
            }
            // Mark a sentence boundary with a period on the last word.
            if let Some(last) = out.last_mut() {
                if !last.ends_with('.') {
                    last.push('.');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::text::corpus::CORPUS;

    fn chain() -> MarkovChain {
        MarkovChain::train(CORPUS)
    }

    #[test]
    fn training_builds_states() {
        let c = chain();
        let states = c.transitions.len();
        assert!(states > 400, "states={states}");
        assert!(!c.starters.is_empty());
    }

    #[test]
    fn generates_near_target_length() {
        let c = chain();
        let mut rng = Rng::new(1);
        for target in [30usize, 100, 250] {
            let words = c.generate(target, &mut rng);
            assert!(words.len() >= target, "{} < {target}", words.len());
            assert!(words.len() <= target + 40, "{} >> {target}", words.len());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let c = chain();
        let a = c.generate(80, &mut Rng::new(7));
        let b = c.generate(80, &mut Rng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn output_contains_sentences() {
        let c = chain();
        let words = c.generate(120, &mut Rng::new(3));
        let periods = words.iter().filter(|w| w.ends_with('.')).count();
        assert!(periods >= 3, "expected multiple sentences, got {periods}");
    }

    #[test]
    fn vocabulary_comes_from_corpus() {
        let c = chain();
        let words = c.generate(60, &mut Rng::new(9));
        let corpus_text = CORPUS.join(" ").to_lowercase();
        for w in words.iter().take(20) {
            let clean = w.trim_end_matches('.');
            assert!(
                corpus_text.contains(clean),
                "word {clean:?} not from corpus"
            );
        }
    }
}
