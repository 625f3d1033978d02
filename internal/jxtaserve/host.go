package jxtaserve

import (
	"fmt"
	"sync"
	"time"

	"consumergrid/internal/advert"
	"consumergrid/internal/types"
)

// Host is a peer's endpoint in the pipe network: it listens on one
// transport address, owns the peer's advertised input pipes, and
// dispatches RPC requests to registered handlers. It corresponds to the
// JXTAServe service endpoint of §3.4: "Triana services are run as
// JXTAServe services and their input and output nodes are advertised as
// JXTAServe input and output pipes."
type Host struct {
	peerID    string
	transport Transport
	listener  Listener

	mu       sync.Mutex
	inputs   map[string]*InputPipe // by pipe name
	handlers map[string]Handler    // by rpc method
	quiesced map[string]bool       // methods refused while draining
	source   ChunkSource           // answers chunk.fetch conns
	closed   bool
	wg       sync.WaitGroup
}

// Handler serves one RPC method. It receives the request and returns the
// reply payload; a non-nil error is reported to the caller as KindRPCError.
type Handler func(req *Message) (*Message, error)

// ChunkSource answers chunk.fetch lookups from local storage. The
// returned bytes are shipped verbatim; fetchers verify them against the
// digest, so a source never needs to be trusted.
type ChunkSource func(digest string) ([]byte, bool)

// NewHost starts a host for peerID listening at addr on the transport.
func NewHost(peerID string, tr Transport, addr string) (*Host, error) {
	if peerID == "" {
		return nil, fmt.Errorf("jxtaserve: empty peer ID")
	}
	l, err := tr.Listen(addr)
	if err != nil {
		return nil, err
	}
	h := &Host{
		peerID:    peerID,
		transport: tr,
		listener:  l,
		inputs:    make(map[string]*InputPipe),
		handlers:  make(map[string]Handler),
	}
	h.wg.Add(1)
	go h.acceptLoop()
	return h, nil
}

// PeerID reports the hosting peer's identity.
func (h *Host) PeerID() string { return h.peerID }

// Addr reports the dialable address of this host.
func (h *Host) Addr() string { return h.listener.Addr() }

// Close shuts the listener and every open input pipe.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	pipes := make([]*InputPipe, 0, len(h.inputs))
	for _, p := range h.inputs {
		pipes = append(pipes, p)
	}
	h.mu.Unlock()
	err := h.listener.Close()
	for _, p := range pipes {
		p.Close()
	}
	h.wg.Wait()
	return err
}

func (h *Host) acceptLoop() {
	defer h.wg.Done()
	for {
		conn, err := h.listener.Accept()
		if err != nil {
			return
		}
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.serveConn(conn)
		}()
	}
}

// serveConn reads the first message to classify the connection as a pipe
// binding or an RPC exchange.
func (h *Host) serveConn(conn Conn) {
	defer conn.Close()
	first, err := conn.Recv()
	if err != nil {
		return
	}
	switch first.Kind {
	case KindPipeBind:
		h.servePipe(conn, first.Header("pipe"))
	case KindRPC:
		h.serveRPC(conn, first)
	case KindChunkFetch:
		h.serveChunkFetch(conn, first)
	default:
		conn.Send(&Message{Kind: KindRPCError,
			Headers: map[string]string{"error": "unexpected kind " + first.Kind}})
	}
}

func (h *Host) servePipe(conn Conn, name string) {
	h.mu.Lock()
	pipe := h.inputs[name]
	h.mu.Unlock()
	if pipe == nil {
		conn.Send(&Message{Kind: KindRPCError,
			Headers: map[string]string{"error": "no such pipe " + name}})
		return
	}
	// Acknowledge the bind so the sender knows the pipe resolved.
	if err := conn.Send(&Message{Kind: KindPipeBind, Headers: map[string]string{"pipe": name}}); err != nil {
		return
	}
	// A bound producer counts toward the pipe's expected EOFs whether it
	// signals end-of-stream or simply vanishes (a consumer-grid peer
	// dropping off DSL must not wedge its consumers).
	defer pipe.eof()
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		switch m.Kind {
		case KindPipeData:
			d, err := types.Unmarshal(m.Payload)
			if err != nil {
				return
			}
			// Decoded network data is sealed before delivery: the codec
			// allocated it fresh, nothing else aliases it, and sealing
			// lets the engine share it across a local fan-out without
			// per-edge clones.
			if !pipe.deliver(types.Seal(d)) {
				return // pipe closed locally
			}
		case KindPipeEOF:
			return
		default:
			return
		}
	}
}

// serveChunkFetch answers one digest lookup from the installed chunk
// source: chunk.data on a hit, rpc.error on a miss or when no source is
// installed. One conversation per connection — over the mux a stream
// costs a frame, so fetchers dial per digest.
func (h *Host) serveChunkFetch(conn Conn, req *Message) {
	digest := req.Header("digest")
	h.mu.Lock()
	source := h.source
	h.mu.Unlock()
	if source == nil {
		conn.Send(&Message{Kind: KindRPCError,
			Headers: map[string]string{"error": "no chunk source at " + h.peerID}})
		return
	}
	data, ok := source(digest)
	if !ok {
		conn.Send(&Message{Kind: KindRPCError,
			Headers: map[string]string{"error": "chunk not held: " + digest}})
		return
	}
	reply := &Message{Kind: KindChunkData, Payload: data}
	reply.SetHeader("digest", digest)
	conn.Send(reply)
}

// SetChunkSource installs (or, with nil, removes) the local storage
// chunk.fetch conversations are answered from.
func (h *Host) SetChunkSource(fn ChunkSource) {
	h.mu.Lock()
	h.source = fn
	h.mu.Unlock()
}

// HasChunkSource reports whether a chunk source is installed, so an
// embedding layer (the overlay super) can avoid clobbering a hook the
// service already wired with its own accounting.
func (h *Host) HasChunkSource() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.source != nil
}

// FetchChunk dials a peer and asks for one chunk by digest. The timeout
// bounds the whole conversation; zero means no deadline. Callers verify
// the returned bytes hash to the digest — the transport does not.
func (h *Host) FetchChunk(addr, digest string, timeout time.Duration) ([]byte, error) {
	conn, err := h.transport.Dial(addr)
	if err != nil {
		return nil, &DialError{Addr: addr, Err: err}
	}
	defer conn.Close()
	if timeout > 0 {
		timer := time.AfterFunc(timeout, func() { conn.Close() })
		defer timer.Stop()
	}
	req := &Message{Kind: KindChunkFetch}
	req.SetHeader("digest", digest)
	req.SetHeader("from", h.peerID)
	if err := conn.Send(req); err != nil {
		return nil, err
	}
	reply, err := conn.Recv()
	if err != nil {
		return nil, err
	}
	switch reply.Kind {
	case KindChunkData:
		return reply.Payload, nil
	case KindRPCError:
		return nil, &RPCError{Method: KindChunkFetch, Addr: addr, Remote: reply.Header("error")}
	default:
		return nil, fmt.Errorf("jxtaserve: chunk fetch %s: unexpected %s", addr, reply.Kind)
	}
}

func (h *Host) serveRPC(conn Conn, req *Message) {
	method := req.Header("method")
	h.mu.Lock()
	handler := h.handlers[method]
	quiesced := h.quiesced[method]
	h.mu.Unlock()
	if quiesced {
		conn.Send(&Message{Kind: KindRPCError,
			Headers: map[string]string{"error": "draining: " + method + " refused at " + h.peerID}})
		return
	}
	if handler == nil {
		conn.Send(&Message{Kind: KindRPCError,
			Headers: map[string]string{"error": "no such method " + req.Header("method")}})
		return
	}
	reply, err := handler(req)
	if err != nil {
		conn.Send(&Message{Kind: KindRPCError,
			Headers: map[string]string{"error": err.Error()}})
		return
	}
	if reply == nil {
		reply = &Message{}
	}
	reply.Kind = KindRPCReply
	conn.Send(reply)
}

// Handle registers an RPC handler for a method name, replacing any
// previous registration.
func (h *Host) Handle(method string, fn Handler) {
	h.mu.Lock()
	h.handlers[method] = fn
	h.mu.Unlock()
}

// Quiesce refuses new requests for the listed methods from now on:
// callers get an *RPCError whose message starts with "draining:".
// In-flight handlers, pipe traffic, and every other method keep
// working — this is how a draining daemon stops accepting new work
// without cutting the conversations that finish the old. Quiescing is
// one-way; a drained host is expected to exit, not recover.
func (h *Host) Quiesce(methods ...string) {
	h.mu.Lock()
	if h.quiesced == nil {
		h.quiesced = make(map[string]bool, len(methods))
	}
	for _, m := range methods {
		h.quiesced[m] = true
	}
	h.mu.Unlock()
}

// Quiesced reports whether a method is currently refused.
func (h *Host) Quiesced(method string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.quiesced[method]
}

// Request dials addr, performs one RPC round trip, and closes the
// connection. The method name travels in the "method" header. Failures
// are typed: *DialError when the peer was unreachable (safe to retry),
// *RPCError when the remote handler rejected the request (retrying is
// pointless). See RequestTimeout for a deadline-bounded variant.
func (h *Host) Request(addr, method string, payload []byte, headers map[string]string) (*Message, error) {
	return h.RequestTimeout(addr, method, payload, headers, 0)
}

// --- input pipes ------------------------------------------------------------

// InputPipe is the receiving end of a named virtual pipe. Data sent by
// any bound remote OutputPipe arrives on C. Close unregisters the pipe
// and closes C.
type InputPipe struct {
	// C delivers decoded data in arrival order. It is closed after Close
	// once all in-flight deliveries have drained.
	C <-chan types.Data

	name string
	host *Host
	ch   chan types.Data

	mu       sync.Mutex
	done     bool
	doneCh   chan struct{}
	inflight int
	chClosed bool
	// expectEOFs > 0 auto-closes the pipe after that many senders have
	// signalled end-of-stream (the controller sets it to the number of
	// bound producers: replicas in a parallel farm, 1 in a pipeline).
	expectEOFs int
	eofsSeen   int
}

// ExpectEOFs arms auto-close after n end-of-stream signals. Call before
// data flows; n <= 0 disables auto-close.
func (p *InputPipe) ExpectEOFs(n int) {
	p.mu.Lock()
	p.expectEOFs = n
	shouldClose := n > 0 && p.eofsSeen >= n && !p.done
	p.mu.Unlock()
	if shouldClose {
		p.Close()
	}
}

// eof records one sender's end-of-stream.
func (p *InputPipe) eof() {
	p.mu.Lock()
	p.eofsSeen++
	shouldClose := p.expectEOFs > 0 && p.eofsSeen >= p.expectEOFs && !p.done
	p.mu.Unlock()
	if shouldClose {
		p.Close()
	}
}

// OpenInput registers an input pipe under the given unique name and
// returns it along with the advertisement to publish. buf is the channel
// depth.
func (h *Host) OpenInput(name string, buf int) (*InputPipe, *advert.Advertisement, error) {
	if name == "" {
		return nil, nil, fmt.Errorf("jxtaserve: empty pipe name")
	}
	if buf < 1 {
		buf = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, ErrClosed
	}
	if _, taken := h.inputs[name]; taken {
		return nil, nil, fmt.Errorf("jxtaserve: pipe %q already open", name)
	}
	ch := make(chan types.Data, buf)
	p := &InputPipe{C: ch, name: name, host: h, ch: ch, doneCh: make(chan struct{})}
	h.inputs[name] = p
	ad := &advert.Advertisement{
		Kind:   advert.KindPipe,
		ID:     fmt.Sprintf("pipe/%s/%s", h.peerID, name),
		PeerID: h.peerID,
		Name:   name,
		Addr:   h.Addr(),
	}
	ad.SetAttr(advert.AttrDirection, "input")
	return p, ad, nil
}

// deliver routes a datum into the pipe, reporting false once closed. The
// blocking send happens outside the lock and races safely with Close via
// the done channel and the in-flight count.
func (p *InputPipe) deliver(d types.Data) bool {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return false
	}
	p.inflight++
	p.mu.Unlock()

	ok := false
	select {
	case p.ch <- d:
		ok = true
	case <-p.doneCh:
	}

	p.mu.Lock()
	p.inflight--
	p.maybeCloseChLocked()
	p.mu.Unlock()
	return ok
}

// maybeCloseChLocked closes the delivery channel once the pipe is done
// and no delivery is mid-send. Callers hold p.mu.
func (p *InputPipe) maybeCloseChLocked() {
	if p.done && p.inflight == 0 && !p.chClosed {
		p.chClosed = true
		close(p.ch)
	}
}

// Name reports the pipe's unique connection label.
func (p *InputPipe) Name() string { return p.name }

// Close unregisters the pipe; C is closed once in-flight deliveries
// drain. Safe to call twice.
func (p *InputPipe) Close() {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return
	}
	p.done = true
	close(p.doneCh)
	p.maybeCloseChLocked()
	p.mu.Unlock()
	p.host.mu.Lock()
	delete(p.host.inputs, p.name)
	p.host.mu.Unlock()
}

// --- output pipes -----------------------------------------------------------

// OutputPipe is the sending end of a named virtual pipe, bound to a
// remote input pipe located through its advertisement.
type OutputPipe struct {
	conn Conn
	mu   sync.Mutex
}

// BindOutput resolves an input-pipe advertisement and binds to it,
// completing the bind handshake ("since the local service knows the
// connection's unique name it locates the pipe with that name and binds
// to it", §3.5).
func (h *Host) BindOutput(ad *advert.Advertisement) (*OutputPipe, error) {
	if ad.Kind != advert.KindPipe {
		return nil, fmt.Errorf("jxtaserve: advert %s is not a pipe", ad.ID)
	}
	conn, err := h.transport.Dial(ad.Addr)
	if err != nil {
		return nil, err
	}
	bind := &Message{Kind: KindPipeBind}
	bind.SetHeader("pipe", ad.Name)
	bind.SetHeader("from", h.peerID)
	if err := conn.Send(bind); err != nil {
		conn.Close()
		return nil, err
	}
	ack, err := conn.Recv()
	if err != nil {
		conn.Close()
		return nil, err
	}
	if ack.Kind != KindPipeBind {
		conn.Close()
		if ack.Kind == KindRPCError {
			return nil, fmt.Errorf("jxtaserve: bind %s: %s", ad.Name, ack.Header("error"))
		}
		return nil, fmt.Errorf("jxtaserve: bind %s: unexpected %s", ad.Name, ack.Kind)
	}
	return &OutputPipe{conn: conn}, nil
}

// Send encodes and ships one datum.
func (p *OutputPipe) Send(d types.Data) error {
	payload, err := types.Marshal(d)
	if err != nil {
		return err
	}
	return p.SendRaw(payload)
}

// SendRaw ships one already-marshalled datum. Producers that hold the
// canonical encoding (a controller that just digested it) use this to
// skip a second marshal and to account the exact bytes put on the wire.
func (p *OutputPipe) SendRaw(payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn.Send(&Message{Kind: KindPipeData, Payload: payload})
}

// Close signals end-of-stream to the remote input pipe, then tears the
// binding down. The remote pipe auto-closes once every expected sender
// has signalled.
func (p *OutputPipe) Close() error {
	p.mu.Lock()
	// Best-effort: a dead connection still gets torn down below.
	p.conn.Send(&Message{Kind: KindPipeEOF})
	p.mu.Unlock()
	return p.conn.Close()
}
