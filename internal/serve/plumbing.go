package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"eul3d/internal/store"
	"eul3d/internal/trace"
)

// HTTP plumbing both daemons answer with — eul3dd through this package's
// API, eul3dc through cluster's: JSON bodies, the strict request decoder,
// the submit-and-maybe-wait answer, the artifact routes, the trace dump
// and the Prometheus text page. Written once, here.

// WriteJSON answers code with v as a JSON body.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteErr answers code with {"error": err}.
func WriteErr(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, map[string]string{"error": err.Error()})
}

// DecodeBody decodes a JSON request body of at most limit bytes into v,
// rejecting unknown fields. On failure it answers 400 itself and reports
// false.
func DecodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		WriteErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// AnswerSubmit answers a solve request whose job was admitted: 202 with
// the job's view, or — when the body (wait) or ?wait=1 asked to block —
// 200 with the final view once done closes. If the client goes away
// first, it is 202 again: the job keeps running and stays pollable.
func AnswerSubmit[V any](w http.ResponseWriter, r *http.Request, wait bool, done <-chan struct{}, view func() V) {
	if wait || r.URL.Query().Get("wait") == "1" {
		select {
		case <-done:
			WriteJSON(w, http.StatusOK, view())
			return
		case <-r.Context().Done():
		}
	}
	WriteJSON(w, http.StatusAccepted, view())
}

// ArtifactRoutes mounts the content-addressed store on mux:
//
//	PUT /v1/artifacts        upload bytes -> {"hash", "bytes"}; idempotent
//	                         by construction, re-uploads land on the same key
//	GET /v1/artifacts/{hash} the bytes, ETag = hash (HEAD probes existence
//	                         without reading them — Go's mux routes HEAD
//	                         through GET patterns)
//
// stored, when non-nil, observes every accepted upload. miss, when
// non-nil, is asked for bytes the store does not hold before the answer
// is 404 — the coordinator proxies them from its nodes.
func ArtifactRoutes(mux *http.ServeMux, st *store.Store, stored func(), miss func(hash string) []byte) {
	mux.HandleFunc("PUT /v1/artifacts", func(w http.ResponseWriter, r *http.Request) {
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, store.MaxBlobSize))
		if err != nil {
			WriteErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading artifact: %w", err))
			return
		}
		hash, err := st.Put(data)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, err)
			return
		}
		if stored != nil {
			stored()
		}
		WriteJSON(w, http.StatusCreated, map[string]any{"hash": hash, "bytes": len(data)})
	})
	mux.HandleFunc("GET /v1/artifacts/{hash}", func(w http.ResponseWriter, r *http.Request) {
		hash := r.PathValue("hash")
		if !store.ValidHash(hash) {
			WriteErr(w, http.StatusBadRequest, fmt.Errorf("malformed artifact hash %q", hash))
			return
		}
		head := r.Method == http.MethodHead
		var data []byte
		size, err := st.Size(hash)
		if err == nil && !head {
			data, err = st.Get(hash)
		}
		if err != nil && miss != nil {
			if data = miss(hash); data != nil {
				size, err = int64(len(data)), nil
			}
		}
		if err != nil {
			WriteErr(w, http.StatusNotFound, fmt.Errorf("artifact %s not found", hash[:12]))
			return
		}
		w.Header().Set("ETag", `"`+hash+`"`)
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		w.Header().Set("Content-Type", "application/octet-stream")
		if !head {
			w.Write(data)
		}
	})
}

// TraceHandler streams the flight recorder as Chrome trace-event JSON,
// loadable directly in Perfetto or chrome://tracing. 404 when the daemon
// was started without tracing (tr is nil).
func TraceHandler(tr *trace.Tracer, lg *log.Logger) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if tr == nil {
			WriteErr(w, http.StatusNotFound, errors.New("tracing disabled (start with -trace)"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := tr.WriteChrome(w); err != nil {
			lg.Printf("trace export: %v", err)
		}
	}
}

// Metric is one row of a daemon's counter table: a Prometheus counter
// read live from the atomic it points at.
type Metric struct {
	Name, Help string
	V          *atomic.Int64
}

// Exposition accumulates a page in the Prometheus text exposition format
// (hand-rolled: no client library in the module).
type Exposition struct{ strings.Builder }

// Value writes one unlabelled sample of the given kind (counter or gauge).
func (e *Exposition) Value(name, help, kind string, v any) {
	trace.PromHead(e, name, help, kind)
	fmt.Fprintf(e, "%s %v\n", name, v)
}

// Counters writes a counter table.
func (e *Exposition) Counters(rows []Metric) {
	for _, m := range rows {
		e.Value(m.Name, m.Help, "counter", m.V.Load())
	}
}

// Series writes a gauge with n samples distinguished by one label; at
// returns sample i's label value and reading.
func (e *Exposition) Series(name, help, label string, n int, at func(i int) (string, any)) {
	trace.PromHead(e, name, help, "gauge")
	for i := 0; i < n; i++ {
		lv, v := at(i)
		fmt.Fprintf(e, "%s{%s=%q} %v\n", name, label, lv, v)
	}
}

// Serve answers with the accumulated page.
func (e *Exposition) Serve(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, e.String())
}
