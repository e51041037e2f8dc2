package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"

	"repro/internal/insertion"
	"repro/internal/shard"
	"repro/internal/shard/wire"
	"repro/internal/yield"
)

// This file is the binary wire codec of the /v1/shard/* pass payloads —
// the only framing those endpoints speak: a request must arrive as a
// binary frame (Content-Type application/x-bufins-shard; anything else
// is answered 415), a 200 response is a binary frame, and error
// responses are JSON like every other endpoint's.
//
// Frame grammar (all little-endian, see internal/shard/wire):
//
//	request  := version:u8 header:bytes lo:int hi:int
//	response := version:u8 batch elapsedMS:int
//
// The request header is the JSON encoding of the full pass request with
// its Range zeroed: the slow-moving part (circuit spec, options, query
// batch, pass spec) is marshaled once per pass and shared by every
// range and wave, while the per-range part travels as two native ints.
// Reusing the JSON form for the header guarantees the binary and JSON
// codecs agree on every field — including nil-vs-empty — by
// construction. The response is the bulky direction (per-sample
// outcomes, per-sweep tallies) and is fully binary via the flat batch
// codecs in internal/insertion and internal/yield.

// appendPassRequest frames one pass request: the shared JSON header plus
// the native per-range window.
func appendPassRequest(buf []byte, header []byte, r shard.Range) []byte {
	buf = wire.AppendU8(buf, wire.Version)
	buf = wire.AppendBytes(buf, header)
	buf = wire.AppendInt(buf, r.Lo)
	buf = wire.AppendInt(buf, r.Hi)
	return buf
}

// decodePassRequest unframes a binary pass request into the JSON header
// and the range window; the caller unmarshals the header into its
// request type and restores the range.
func decodePassRequest(data []byte) (header []byte, rng shard.Range, err error) {
	r := wire.NewReader(data)
	r.Version(wire.Version)
	header = r.Bytes()
	rng.Lo = r.Int()
	rng.Hi = r.Int()
	if err := r.Done(); err != nil {
		return nil, shard.Range{}, err
	}
	return header, rng, nil
}

func decodeInsertPassRequest(data []byte) (InsertPassRequest, error) {
	var req InsertPassRequest
	header, rng, err := decodePassRequest(data)
	if err != nil {
		return req, err
	}
	if err := json.Unmarshal(header, &req); err != nil {
		return req, err
	}
	req.Range = rng
	return req, nil
}

func decodeYieldPassRequest(data []byte) (YieldPassRequest, error) {
	var req YieldPassRequest
	header, rng, err := decodePassRequest(data)
	if err != nil {
		return req, err
	}
	if err := json.Unmarshal(header, &req); err != nil {
		return req, err
	}
	req.Range = rng
	return req, nil
}

// appendInsertPassResponse frames one insert-pass response binary.
func appendInsertPassResponse(buf []byte, resp *InsertPassResponse) []byte {
	buf = wire.AppendU8(buf, wire.Version)
	buf = insertion.AppendOutcomes(buf, resp.Outcomes)
	buf = wire.AppendInt(buf, int(resp.ElapsedMS))
	return buf
}

// decodeInsertPassResponse unframes a binary insert-pass response into
// ob's reused storage; the outcomes alias ob.
func decodeInsertPassResponse(data []byte, ob *insertion.OutcomeBuf) (*InsertPassResponse, error) {
	r := wire.NewReader(data)
	r.Version(wire.Version)
	outs := ob.Decode(&r)
	elapsed := r.Int()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &InsertPassResponse{Outcomes: outs, ElapsedMS: int64(elapsed)}, nil
}

// decodeOutcomes unframes an insert-pass response into its outcomes, in
// fresh storage (the coordinator's per-range decoder).
func decodeOutcomes(data []byte) ([]insertion.SampleOutcome, error) {
	var ob insertion.OutcomeBuf
	resp, err := decodeInsertPassResponse(data, &ob)
	if err != nil {
		return nil, err
	}
	return resp.Outcomes, nil
}

// appendYieldPassResponse frames one yield-pass response binary.
func appendYieldPassResponse(buf []byte, resp *YieldPassResponse) []byte {
	buf = wire.AppendU8(buf, wire.Version)
	buf = yield.AppendTallies(buf, resp.Tallies)
	buf = wire.AppendInt(buf, int(resp.ElapsedMS))
	return buf
}

// decodeYieldPassResponse unframes a binary yield-pass response into
// tb's reused storage; the tallies alias tb.
func decodeYieldPassResponse(data []byte, tb *yield.TallyBuf) (*YieldPassResponse, error) {
	r := wire.NewReader(data)
	r.Version(wire.Version)
	tallies := tb.Decode(&r)
	elapsed := r.Int()
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &YieldPassResponse{Tallies: tallies, ElapsedMS: int64(elapsed)}, nil
}

// decodeTallies unframes a yield-pass response into its tallies, in fresh
// storage (the coordinator's per-range decoder).
func decodeTallies(data []byte) ([]yield.SweepTally, error) {
	var tb yield.TallyBuf
	resp, err := decodeYieldPassResponse(data, &tb)
	if err != nil {
		return nil, err
	}
	return resp.Tallies, nil
}

// encBufPool recycles response encode buffers across shard-pass
// requests so the warm worker encode path reuses storage instead of
// allocating a fresh frame per range.
var encBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// shardRoutes installs the binary /v1/shard/* handlers.
func (s *Server) shardRoutes() {
	s.mux.Handle(insertPassPath, passHandler(s, epInsertPass, decodeInsertPassRequest, s.insertPass, appendInsertPassResponse))
	s.mux.Handle(yieldPassPath, passHandler(s, epYieldPass, decodeYieldPassRequest, s.yieldPass, appendYieldPassResponse))
}

// passHandler wraps one /v1/shard/* endpoint in postHandler's admission
// around the binary frame codec: a request that is not a binary frame is
// answered 415 before it takes an inflight slot, the request decodes from
// its frame, the 200 response encodes as one, and errors are JSON.
func passHandler[Req any, Resp any](s *Server, ep endpoint,
	decode func([]byte) (Req, error),
	handle func(*http.Request, Req) (Resp, error),
	appendResp func([]byte, Resp) []byte,
) http.Handler {
	return s.postHandler(ep, acceptFrame, func(w http.ResponseWriter, r *http.Request) error {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return badRequest("reading request: %w", err)
		}
		req, err := decode(body)
		if err != nil {
			return badRequest("decoding request: %w", err)
		}
		resp, err := handle(r, req)
		if err != nil {
			return err
		}
		bp := encBufPool.Get().(*[]byte)
		buf := appendResp((*bp)[:0], resp)
		w.Header().Set("Content-Type", wire.ContentType)
		w.Write(buf)
		*bp = buf[:0]
		encBufPool.Put(bp)
		return nil
	})
}

// acceptFrame admits only binary shard frames (415 otherwise).
func acceptFrame(r *http.Request) error {
	if ct := r.Header.Get("Content-Type"); !strings.Contains(ct, wire.ContentType) {
		return &httpError{status: http.StatusUnsupportedMediaType, err: fmt.Errorf("shard passes take %s frames, not %q", wire.ContentType, ct)}
	}
	return nil
}
