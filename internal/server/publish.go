package server

import (
	"errors"
	"io"
	"net/http"
	"strconv"

	"metamess"
)

// DefaultMaxPublishBytes caps a POST /publish body when Config leaves
// MaxPublishBytes at 0. 8 MiB fits thousands of feature summaries; a
// producer with more splits batches.
const DefaultMaxPublishBytes = 8 << 20

// handlePublish is the push-ingest endpoint: a producer POSTs a batch
// of complete catalog features (and optional retractions) and the
// system publishes them through exactly the wrangle pipeline — sharded
// apply, journal append, follower notification, cache invalidation.
//
// The request runs the same front gate as a search (admit: per-client
// rate limit, admission) minus the X-Min-Generation wait. Failure modes
// never touch state:
//
//	413 — body over MaxPublishBytes (refused before decoding)
//	400 — body unreadable (client disconnect, chunked-transfer error)
//	422 — decoded but rejected (invalid feature, validation error)
//	503 — accepted but undurable (journal degraded)
//
// A 200 carries the PublishReceipt; its generation echoes into
// X-Dnhd-Generation so a read-your-writes client can forward it as
// X-Min-Generation to any replica.
func (s *Server) handlePublish(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r, false)
	if !ok {
		return
	}
	defer release()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxPublishBytes))
	if err != nil {
		s.tel.publishRejected.Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"publish body exceeds "+strconv.FormatInt(s.maxPublishBytes, 10)+" bytes")
			return
		}
		// A mid-stream disconnect or transfer error lands here: the batch
		// never decoded, so nothing was applied or journaled.
		writeError(w, http.StatusBadRequest, "reading publish body: "+err.Error())
		return
	}
	req, err := metamess.DecodePublishRequest(body)
	if err != nil {
		s.tel.publishRejected.Inc()
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	receipt, err := s.sys.PublishFeatures(req)
	if err != nil {
		s.tel.publishRejected.Inc()
		if errors.Is(err, metamess.ErrPublishRejected) {
			writeError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		// The journal refused or failed the append: the publish is not
		// durable and the client must not treat it as accepted.
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	s.tel.publishes.Inc()
	s.tel.publishFeatures.Add(uint64(receipt.Published))
	if receipt.Stable {
		s.tel.publishStable.Inc()
	}
	s.noteGeneration(receipt.Generation)
	w.Header().Set("X-Dnhd-Generation", strconv.FormatUint(receipt.Generation, 10))
	writeJSON(w, http.StatusOK, receipt)
}
