package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"waterwise/internal/server"
	"waterwise/internal/wire"
)

// Job outcome codes as the client saw them.
const (
	codePending int8 = iota // no reply yet
	codeAccepted
	codeRejected
	codeErrored
)

// clientRec is what a loopback client measured of one replay. The
// per-job codes are written by one goroutine and read after it has
// finished.
type clientRec struct {
	code      []int8
	decisions []server.Decision

	accepted, decided atomic.Int64
	nReplied          atomic.Int64 // jobs whose submit reply arrived

	encNs, encJobs int64 // client-side wire codec
	decNs, decDecs int64
	decBytes       int64
	postNs, pollNs []int64
	pollBytes      int64
}

func newClientRec(n int) *clientRec { return &clientRec{code: make([]int8, n)} }

// replied records one job's submit reply.
func (c *clientRec) replied(id int, accepted, queueFull bool) {
	switch {
	case accepted:
		c.code[id] = codeAccepted
		c.accepted.Add(1)
	case queueFull:
		c.code[id] = codeRejected
	default:
		c.code[id] = codeErrored
	}
	c.nReplied.Add(1)
}

// decidedOne records one received decision, in stream order; checkLog
// checks the log's order and completeness once the replay is over.
func (c *clientRec) decidedOne(d server.Decision) {
	c.decisions = append(c.decisions, d)
	c.decided.Add(1)
}

// waitFor polls cond every millisecond until it holds, done closes, or
// the timeout passes.
func waitFor(cond func() bool, done <-chan struct{}, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for !cond() && time.Now().Before(deadline) {
		select {
		case <-done:
			return
		case <-time.After(time.Millisecond):
		}
	}
}

// streamClient is one binary-protocol connection: batches go out as
// Submit frames; a reader goroutine pairs each SubmitReply with its batch
// and, when subscribed, records pushed decisions.
type streamClient struct {
	nc   net.Conn
	conn *wire.Conn
	c    *clientRec
	// Replies come back in submit order on the one connection, so a FIFO
	// pairs each with its batch; sized for every batch a run can send.
	pending   chan []int
	replyKick chan struct{} // signalled after each submit reply
	ackSeq    atomic.Uint64
	ackKick   chan struct{}
	readDone  chan struct{}
	ackDone   chan struct{}
	readErr   error

	jobs []wire.Job
	buf  []byte
}

func dialStream(addr string, c *clientRec, subscribe bool) (*streamClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	conn := wire.NewConn(nc)
	hello := wire.Hello{}
	if subscribe {
		hello.Flags = wire.HelloSubscribe
	}
	if err := conn.WriteFrame(wire.TypeHello, wire.AppendHello(nil, hello)); err != nil {
		nc.Close()
		return nil, err
	}
	typ, payload, err := conn.ReadFrame()
	if err == nil && typ != wire.TypeWelcome {
		err = fmt.Errorf("handshake: frame type %d", typ)
	}
	if err == nil {
		_, err = conn.Codec().DecodeWelcome(payload)
	}
	if err != nil {
		nc.Close()
		return nil, err
	}
	sc := &streamClient{
		nc: nc, conn: conn, c: c,
		pending:   make(chan []int, len(c.code)),
		replyKick: make(chan struct{}, 1),
		ackKick:   make(chan struct{}, 1),
		readDone:  make(chan struct{}),
		ackDone:   make(chan struct{}),
	}
	go sc.read()
	go sc.ack()
	return sc, nil
}

func (sc *streamClient) read() {
	defer close(sc.readDone)
	c := sc.c
	var results []wire.SubmitResult
	var ds []wire.Decision
	for {
		typ, payload, err := sc.conn.ReadFrame()
		if err != nil {
			if !wire.IsClosed(err) {
				sc.readErr = err
			}
			return
		}
		switch typ {
		case wire.TypeSubmitReply:
			if results, err = sc.conn.Codec().DecodeSubmitReply(payload, results[:0]); err != nil {
				sc.readErr = err
				return
			}
			ids := <-sc.pending
			for k, r := range results {
				c.replied(ids[k], r.Code == wire.SubmitOK, r.Code == wire.SubmitQueueFull)
			}
			select {
			case sc.replyKick <- struct{}{}:
			default: // a waiter is already due to wake; it rereads the count
			}
		case wire.TypeDecisions:
			d0 := time.Now()
			var next uint64
			if ds, next, err = sc.conn.Codec().DecodeDecisions(payload, ds[:0]); err != nil {
				sc.readErr = err
				return
			}
			c.decNs += time.Since(d0).Nanoseconds()
			c.decDecs += int64(len(ds))
			c.decBytes += int64(len(payload) + wire.HeaderSize)
			for k := range ds {
				c.decidedOne(server.DecisionFromWire(&ds[k]))
			}
			sc.ackSeq.Store(next)
			select {
			case sc.ackKick <- struct{}{}:
			default: // the acker is already due to run; it sends the newest cursor
			}
		default:
			sc.readErr = fmt.Errorf("unexpected frame type %d", typ)
			return
		}
	}
}

// ack returns the decision cursor on its own goroutine, so the reader
// never blocks behind a sender stalled on a full socket.
func (sc *streamClient) ack() {
	defer close(sc.ackDone)
	var sent uint64
	var buf []byte
	for {
		select {
		case <-sc.ackKick:
		case <-sc.readDone:
			return
		}
		if next := sc.ackSeq.Load(); next != sent {
			buf = wire.AppendAck(buf[:0], next)
			if sc.conn.WriteFrame(wire.TypeAck, buf) != nil {
				return
			}
			sent = next
		}
	}
}

// send encodes jobs [i, j) of the specs as one Submit frame.
func (sc *streamClient) send(specs []server.JobSpec, i, j int) error {
	e0 := time.Now()
	sc.jobs = sc.jobs[:0]
	ids := make([]int, 0, j-i)
	for k := i; k < j; k++ {
		sc.jobs = append(sc.jobs, server.WireJob(specs[k]))
		ids = append(ids, k)
	}
	var err error
	if sc.buf, err = wire.AppendSubmit(sc.buf[:0], sc.jobs); err != nil {
		return err
	}
	sc.c.encNs += time.Since(e0).Nanoseconds()
	sc.c.encJobs += int64(j - i)
	sc.pending <- ids
	return sc.conn.WriteFrame(wire.TypeSubmit, sc.buf)
}

// awaitReplies blocks until n jobs have their submit replies or the
// connection has failed.
func (sc *streamClient) awaitReplies(n int64) {
	for sc.c.nReplied.Load() < n {
		select {
		case <-sc.replyKick:
		case <-sc.readDone:
			return
		}
	}
}

// close tears the connection down and returns the reader's error.
func (sc *streamClient) close() error {
	sc.nc.Close()
	<-sc.readDone
	<-sc.ackDone
	return sc.readErr
}

// httpClient drives the JSON API: POST /v1/jobs batches on one
// connection, GET /v1/decisions polls on another.
type httpClient struct {
	base   string
	client *http.Client
	tr     *http.Transport
	c      *clientRec
	since  uint64
	body   bytes.Buffer
}

func newHTTPClient(addr string, c *clientRec) *httpClient {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &httpClient{base: "http://" + addr, tr: tr, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}, c: c}
}

// post submits jobs [i, j) of the specs as one JSON array.
func (h *httpClient) post(specs []server.JobSpec, i, j int) error {
	body, err := json.Marshal(specs[i:j])
	if err != nil {
		return err
	}
	p0 := time.Now()
	resp, err := h.client.Post(h.base+server.PathJobs, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var sr server.SubmitResponse
	err = json.NewDecoder(resp.Body).Decode(&sr)
	resp.Body.Close()
	h.c.postNs = append(h.c.postNs, time.Since(p0).Nanoseconds())
	if err != nil {
		return fmt.Errorf("decoding submit reply: %w", err)
	}
	// The handler accepts a prefix of the batch and stops at the first
	// rejection, which the status code names.
	for k := i; k < j; k++ {
		h.c.replied(k, k-i < len(sr.Accepted), resp.StatusCode == http.StatusTooManyRequests)
	}
	return nil
}

// poll reads one page of decisions past the cursor and reports how many
// it carried.
func (h *httpClient) poll() (int, error) {
	p0 := time.Now()
	resp, err := h.client.Get(h.base + server.PathDecisions + "?limit=4096&since=" + strconv.FormatUint(h.since, 10))
	if err != nil {
		return 0, err
	}
	h.body.Reset()
	_, err = io.Copy(&h.body, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	var page struct {
		Decisions []server.Decision `json:"decisions"`
		Next      uint64            `json:"next"`
	}
	if err := json.Unmarshal(h.body.Bytes(), &page); err != nil {
		return 0, fmt.Errorf("decoding decisions: %w", err)
	}
	h.c.pollNs = append(h.c.pollNs, time.Since(p0).Nanoseconds())
	if len(page.Decisions) > 0 {
		h.c.pollBytes += int64(h.body.Len())
		for _, d := range page.Decisions {
			h.c.decidedOne(d)
		}
		h.since = page.Next
	}
	return len(page.Decisions), nil
}
