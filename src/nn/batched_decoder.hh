/**
 * @file
 * BatchedDecoder: cross-request lockstep decode — the compute kernel
 * of continuous batching (serve/batch_scheduler.hh).
 *
 * A single decode step is the low-intensity skinny-GEMM regime where
 * DPTC tile occupancy collapses (nn/llm_workload.hh models it;
 * bench_llm_decode measures it): each projection runs one [1, dim]
 * row against a [dim, dim] weight. BatchedDecoder::step advances N
 * InferenceSessions one token each *together*, per layer, fusing the
 * same-shape row-GEMMs of all N requests into single stream-addressed
 * dispatches (per projection a stacked-row call, or a gemmBatch on
 * backends without row stacking; one gemmBatch each for QK^T and
 * AV) — so the engine sees O(layers) dispatches per step instead of
 * O(layers x requests), and each dispatch carries all N requests'
 * output tiles to shard across the DPTC core replicas.
 *
 * This is the only decode implementation: InferenceSession::decodeStep
 * is step() over a batch of one, and ingest() is step() cut short for
 * callers that discard the logits (InferenceSession::ingestStep). It
 * also starts sessions: a session's first token needs no datapath of
 * its own, since every token's K and V are dynamic operands.
 *
 * Correctness contract (the headline): because stream-addressed
 * products are pure functions of (operands, config, stream) and each
 * session draws from its own request_id lane in a fixed per-session
 * order, the logits of a batched step are BIT-IDENTICAL to each
 * session stepping alone — at any batch size, on the noisy engine.
 * tests/test_serve.cc asserts this at concurrency 1..16. A skipped
 * product keeps its place in that order (NoiseStream::skip), so an
 * ingest() leaves every session exactly where step() would.
 */

#ifndef LT_NN_BATCHED_DECODER_HH
#define LT_NN_BATCHED_DECODER_HH

#include <vector>

#include "nn/inference_session.hh"

namespace lt {
namespace nn {

/** Lockstep per-layer decode driver over InferenceSessions. */
class BatchedDecoder
{
  public:
    /**
     * Advance every session one decode step in lockstep: session i
     * ingests tokens[i] and receives the logits a batch holding it
     * alone would return, bit-identically; the sessions' K/V caches
     * and noise lanes advance exactly as in those solo steps. A
     * session that holds no tokens yet takes its first token here
     * like any other: its tail mirrors are created (and reserved) by
     * that append, and Mean pooling starts its running sum.
     *
     * Requirements (std::invalid_argument otherwise): at least one
     * session; one token per session; no duplicate sessions; all
     * sessions share one model, one backend and one QuantConfig; and
     * no session's context may exceed TransformerConfig::max_tokens.
     * Validation happens before any session is touched.
     */
    static std::vector<Matrix>
    step(const std::vector<InferenceSession *> &sessions,
         const std::vector<int> &tokens);

    /**
     * step() for callers that discard the logits: the ingest of a
     * prompt position before a chunk's last, or of a replayed token.
     * Layers 0..depth-2 run as in step(); the last layer only appends
     * its K/V (TransformerBlock::ingestStepBatch), and the final LN
     * and the LM head are skipped. Every skipped product still claims
     * its stream id, in step()'s order, so each session's K/V caches
     * (dense and packed) and noise lane end bit-identical to step()'s,
     * and so does every later logit. Mean pooling runs step() in full:
     * its running pooled sum needs every row's final LN. Same
     * requirements as step().
     */
    static void
    ingest(const std::vector<InferenceSession *> &sessions,
           const std::vector<int> &tokens);

  private:
    /** step() when `logits_read`, else ingest(). */
    static std::vector<Matrix>
    advance(const std::vector<InferenceSession *> &sessions,
            const std::vector<int> &tokens, bool logits_read);
};

} // namespace nn
} // namespace lt

#endif // LT_NN_BATCHED_DECODER_HH
