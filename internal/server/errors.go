package server

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"

	"fnpr/internal/eval"
	"fnpr/internal/guard"
)

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeErr maps err onto the service's typed error contract: the HTTP status
// from guard.HTTPStatus (parallel to the CLI exit-code contract), a JSON
// body {"error": ..., "code": ...} whose code is the same machine-readable
// failure vocabulary the sweep journal uses (eval.ReasonOf), and — on 429 —
// a Retry-After header, because an admission rejection means "nothing was
// started, try again shortly", not "give up". An over-limit request body is
// invalid input answered with 413 rather than 400.
func writeErr(w http.ResponseWriter, err error) {
	status := guard.HTTPStatus(err)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{
		"error": err.Error(),
		"code":  eval.ReasonOf(err).String(),
	})
}

// fail is writeErr plus the server-side accounting that belongs to failures
// rather than endpoints (recovered analysis panics).
func (s *Server) fail(w http.ResponseWriter, err error) {
	if errors.Is(err, guard.ErrPanic) {
		s.sc.Counter("server.panics_recovered").Inc()
	}
	writeErr(w, err)
}

// jsonNum makes a float JSON-safe: encoding/json refuses non-finite values,
// so ±Inf and NaN become the strings the sweep wire format already uses.
func jsonNum(v float64) any {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return v
	}
}

// retryAfterSeconds is exposed for tests asserting the 429 contract.
func retryAfterSeconds(h http.Header) (int, bool) {
	v := h.Get("Retry-After")
	if v == "" {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, false
	}
	return n, true
}
