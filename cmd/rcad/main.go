// Command rcad serves the HTTP JSON backend of the paper's operator GUI:
// listing alarms, running detection and extraction, drilling down to raw
// flows with nfdump-style filters, and recording verdicts. The paper's
// front-end is a GUI over exactly these operations; any HTTP client can
// drive this backend.
//
// Usage:
//
//	rcad -store /tmp/flows -alarmdb /tmp/alarms.json -listen :8642 \
//	     -query-parallelism 8 -job-workers 4 -job-queue 64
//
// Versioned job API (the production surface — submit, poll, fetch):
//
//	POST   /api/v1/jobs             body: {"alarm_id":"1","miner":"fpgrowth","ranking":"lift"}
//	                                  or: {"alarm_ids":["1","2"],"concurrency":4}
//	                                  or: {"incident_id":"i1"}
//	GET    /api/v1/jobs             list jobs (queued, running, retained)
//	GET    /api/v1/jobs/{id}        status + live progress
//	DELETE /api/v1/jobs/{id}        cancel (queued or running)
//	GET    /api/v1/jobs/{id}/result final result of a finished job
//	GET    /api/v1/jobs/{id}/events SSE stream of status/progress events
//
// Incident API (alarm dedup + temporal correlation, docs/incidents.md):
//
//	POST /api/v1/correlate               optional body: {"from":U,"to":U,
//	                                     "dedup_window":300,"cluster_gap":600,
//	                                     "min_confidence":0.5}
//	GET  /api/v1/incidents?from=U&to=U   list stored incidents
//	GET  /api/v1/incidents/{id}          one incident + member alarms + chain
//	POST /api/v1/incidents/{id}/extract  submit the incident's ONE extraction
//	                                     job (202 + job status)
//
// Streaming API (with -live; docs/streaming.md):
//
//	POST /api/v1/stream/ingest     NDJSON flow records, ingested continuously
//	                               (backpressure propagates via flow control)
//	GET  /api/v1/stream/incidents  SSE tail of auto-correlated, auto-extracted
//	                               incidents
//
// Submissions are admission-controlled: a full job queue answers 429
// (with Retry-After) instead of stacking blocked connections.
//
// Legacy synchronous endpoints (thin wrappers over the same job
// manager — submit + wait, one code path for both surfaces):
//
//	GET  /api/health
//	GET  /api/detectors
//	GET  /api/miners
//	POST /api/detect                body: {"detector":"netreflex","from":UNIX,"to":UNIX}
//	GET  /api/alarms?from=UNIX&to=UNIX
//	GET  /api/alarms/{id}
//	POST /api/alarms/{id}/extract   optional body: {"miner":"fpgrowth","ranking":"lift"}
//	POST /api/extract-batch         body: {"alarm_ids":["1","2"],"concurrency":4,"miner":"fpgrowth","ranking":"lift"}
//	POST /api/alarms/{id}/verdict   body: {"validated":true,"note":"..."}
//	GET  /api/flows?from=UNIX&to=UNIX&filter=EXPR&limit=N
//
// Every handler runs under its request's context: a disconnecting
// client aborts the store scan it was waiting for, and the legacy
// wrappers cancel their job on disconnect. /api/extract-batch streams
// NDJSON: one result object per line, in completion order. The server
// drains in-flight requests on SIGINT or SIGTERM via
// http.Server.Shutdown and always closes the system so jobs wind down,
// the flow store flushes and the alarm database persists.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	rootcause "repro"
	"repro/internal/alarmdb"
	"repro/internal/flow"
	"repro/internal/shardstore"
)

// splitList parses a comma-separated flag (-peers, -live-detectors) into
// its non-empty elements.
func splitList(s string) []string {
	var items []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			items = append(items, p)
		}
	}
	return items
}

func main() {
	var (
		storeDir = flag.String("store", "", "flow store directory (required)")
		dbPath   = flag.String("alarmdb", "", "alarm database JSON path")
		listen   = flag.String("listen", ":8642", "listen address")
		drain    = flag.Duration("drain", 30*time.Second, "shutdown drain timeout")
		queryPar = flag.Int("query-parallelism", 0,
			"concurrent segment scans per store query (0 = min(GOMAXPROCS, 8), 1 = serial)")
		jobWorkers = flag.Int("job-workers", 0,
			"concurrent extraction jobs (0 = GOMAXPROCS)")
		jobQueue = flag.Int("job-queue", 0,
			"submitted jobs that may wait beyond the running ones before 429 (0 = 64)")
		resultTTL = flag.Duration("result-ttl", 0,
			"how long finished job results stay fetchable (0 = 15m)")
		segFormat = flag.Int("segment-format", 0,
			"on-disk format for newly created segments: 1 = fixed rows, 2 = column blocks (0 = store default)")
		peers = flag.String("peers", "",
			"comma-separated peer rcad URLs; serve as cluster coordinator over their /api/v1/shard endpoints instead of a local store")
		peerTimeout = flag.Duration("peer-timeout", 0,
			"per-peer timeout for unary cluster calls (0 = 10s)")
		degraded = flag.Bool("degraded", false,
			"return partial results when some (not all) shards fail instead of erroring")
		live = flag.Bool("live", false,
			"start the live streaming pipeline: accept continuous ingest on POST /api/v1/stream/ingest, run online detectors, auto-correlate and auto-extract incidents (local store only)")
		liveDetectors = flag.String("live-detectors", "",
			"comma-separated online detectors for -live (empty = cusum,sketch)")
		sealLag = flag.Uint("seal-lag", 0,
			"with -live, seconds past a bin's end before it seals (grace for out-of-order records)")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `usage: rcad -store DIR [flags]

Serve the HTTP JSON backend of the paper's operator GUI: listing
alarms, running detection and extraction, drilling down to raw flows
with nfdump-style filters, and recording verdicts. Extractions run as
asynchronous jobs on a bounded worker pool; the legacy synchronous
endpoints wrap the same job manager.

Job API (versioned):
  POST   /api/v1/jobs             {"alarm_id":"1","miner":"fpgrowth","ranking":"lift"}
                                  or {"alarm_ids":["1","2"],"concurrency":4}
                                  or {"incident_id":"i1"}
                                  202 on admit, 429 + Retry-After when the
                                  queue is full
  GET    /api/v1/jobs             list jobs (queued, running, retained)
  GET    /api/v1/jobs/{id}        status + live progress
  DELETE /api/v1/jobs/{id}        cancel (queued or running)
  GET    /api/v1/jobs/{id}/result final result (409 while unfinished)
  GET    /api/v1/jobs/{id}/events SSE stream of status/progress events

Incident API (alarm dedup + temporal correlation):
  POST /api/v1/correlate              optional {"from":U,"to":U,"dedup_window":300,
                                      "cluster_gap":600,"min_confidence":0.5}
  GET  /api/v1/incidents?from=U&to=U  list stored incidents
  GET  /api/v1/incidents/{id}         one incident + member alarms + chain
  POST /api/v1/incidents/{id}/extract submit the incident's ONE extraction job

Streaming API (with -live):
  POST /api/v1/stream/ingest      NDJSON flow records, continuous ingest
  GET  /api/v1/stream/incidents   SSE tail of auto-extracted incidents

Legacy endpoints (synchronous wrappers over the job manager):
  GET  /api/health                (query_stats, job counts, event streams,
                                  and with -live the streaming census)
  GET  /api/detectors
  GET  /api/miners
  POST /api/detect                {"detector":"netreflex","from":U,"to":U}
  GET  /api/alarms?from=U&to=U
  GET  /api/alarms/{id}
  POST /api/alarms/{id}/extract   optional {"miner":"fpgrowth","ranking":"lift"}
  POST /api/extract-batch         {"alarm_ids":["1","2"],"concurrency":4,"miner":"fpgrowth","ranking":"lift"}
  POST /api/alarms/{id}/verdict   {"validated":true,"note":"..."}
  GET  /api/flows?from=U&to=U&filter=EXPR&limit=N

Cluster mode:
  Every rcad node serves its own store as one shard under /api/v1/shard/.
  A node started with -peers URL1,URL2,... opens no local store; it
  coordinates queries, detection and extraction by scatter-gather over
  the peers' shard endpoints (per-peer timeouts, bounded retries; a dead
  peer fails with its URL named, or -degraded returns partial results).

Example:
  rcad -store /tmp/flows -alarmdb /tmp/flows/alarms.json -listen :8642
  rcad -peers http://10.0.0.1:8642,http://10.0.0.2:8642 -alarmdb /tmp/alarms.json

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	peerList := splitList(*peers)
	if *storeDir == "" && len(peerList) == 0 {
		fmt.Fprintln(os.Stderr, "rcad: -store is required (or -peers for cluster mode)")
		flag.Usage()
		os.Exit(2)
	}
	opts := []rootcause.Option{
		rootcause.WithQueryParallelism(*queryPar),
		rootcause.WithJobWorkers(*jobWorkers),
		rootcause.WithJobQueueDepth(*jobQueue),
		rootcause.WithResultTTL(*resultTTL),
		rootcause.WithSegmentFormat(uint16(*segFormat)),
		rootcause.WithDegradedReads(*degraded),
	}
	if len(peerList) > 0 {
		opts = append(opts, rootcause.WithPeers(peerList), rootcause.WithPeerTimeout(*peerTimeout))
	}
	if *live {
		if len(peerList) > 0 {
			fmt.Fprintln(os.Stderr, "rcad: -live requires a local store, not cluster mode (-peers)")
			os.Exit(2)
		}
		opts = append(opts, rootcause.WithLive(rootcause.LiveConfig{
			Detectors:      splitList(*liveDetectors),
			SealLagSeconds: uint32(*sealLag),
		}))
	}
	open := rootcause.Open
	if *live && !storeExists(*storeDir) {
		// A live server may start cold: records arrive over the ingest
		// endpoint, so an empty directory is a fresh store, not an error.
		open = rootcause.Create
	}
	sys, err := open(rootcause.Config{StoreDir: *storeDir, AlarmDBPath: *dbPath}, opts...)
	if err != nil {
		log.Fatal("rcad: ", err)
	}
	if err := run(sys, *listen, *drain); err != nil {
		sys.Close()
		log.Fatal("rcad: ", err)
	}
	if err := sys.Close(); err != nil {
		log.Fatal("rcad: close: ", err)
	}
}

// run serves until SIGINT/SIGTERM, then drains in-flight requests via
// Shutdown. Requests still running when the drain timeout expires have
// their contexts cancelled so store scans and extractions abort cleanly
// instead of being cut mid-write.
func run(sys *rootcause.System, listen string, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// baseCtx outlives the signal: in-flight requests keep working during
	// the drain window and are cancelled only when it runs out.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	srv := &http.Server{
		Addr:        listen,
		Handler:     (&server{sys: sys}).routes(),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() {
		// The resolved address matters when -listen used port 0 (tests
		// and scripts parse this line to find the server).
		log.Printf("rcad: serving on %s", ln.Addr())
		errCh <- srv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("rcad: shutting down (drain %s)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if sys.Live() {
		// Drain the live pipeline first: seal the open bins, let the
		// watcher and in-flight auto-extractions finish, then close the
		// incident feed — which releases the SSE tails that would
		// otherwise hold Shutdown open for the whole window.
		if derr := sys.DrainLive(shutdownCtx); derr != nil {
			log.Printf("rcad: live drain: %v", derr)
		}
	}
	err = srv.Shutdown(shutdownCtx)
	if err != nil {
		// Drain window expired: cancel the stragglers' contexts and force
		// the remaining connections closed.
		baseCancel()
		srv.Close()
	}
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// server holds the handler state.
type server struct {
	sys *rootcause.System
	// sseStreams counts open /api/v1/jobs/{id}/events connections
	// (surfaced in /api/health; tests use it to observe disconnects).
	sseStreams atomic.Int64
}

// routes builds the HTTP mux.
func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	// Versioned job API.
	mux.HandleFunc("POST /api/v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleJobCancel)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleJobEvents)

	// Streaming surface (-live): continuous ingest + SSE incident tail.
	mux.HandleFunc("POST /api/v1/stream/ingest", s.handleStreamIngest)
	mux.HandleFunc("GET /api/v1/stream/incidents", s.handleStreamIncidents)

	mux.HandleFunc("POST /api/v1/correlate", s.handleCorrelate)
	mux.HandleFunc("GET /api/v1/incidents", s.handleIncidents)
	mux.HandleFunc("GET /api/v1/incidents/{id}", s.handleIncident)
	mux.HandleFunc("POST /api/v1/incidents/{id}/extract", s.handleIncidentExtract)
	// Legacy surface (extraction endpoints wrap the job manager).
	mux.HandleFunc("GET /api/health", s.handleHealth)
	mux.HandleFunc("GET /api/detectors", s.handleDetectors)
	mux.HandleFunc("GET /api/miners", s.handleMiners)
	mux.HandleFunc("POST /api/detect", s.handleDetect)
	mux.HandleFunc("GET /api/alarms", s.handleAlarms)
	mux.HandleFunc("GET /api/alarms/{id}", s.handleAlarm)
	mux.HandleFunc("POST /api/alarms/{id}/extract", s.handleExtract)
	mux.HandleFunc("POST /api/extract-batch", s.handleExtractBatch)
	mux.HandleFunc("POST /api/alarms/{id}/verdict", s.handleVerdict)
	mux.HandleFunc("GET /api/flows", s.handleFlows)
	// Shard surface: this node's store served as one shard of a cluster,
	// for coordinator peers running with -peers (framed binary /query,
	// JSON aggregations — see internal/shardstore).
	mux.Handle("/api/v1/shard/", http.StripPrefix("/api/v1/shard", shardstore.Handler(s.sys.Store())))
	return mux
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("rcad: encode response: %v", err)
	}
}

// writeError writes a JSON error envelope.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// parseSpan reads from/to query parameters (0 = open end).
func parseSpan(r *http.Request) (flow.Interval, error) {
	parse := func(key string, def uint32) (uint32, error) {
		v := r.URL.Query().Get(key)
		if v == "" {
			return def, nil
		}
		n, err := strconv.ParseUint(v, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("bad %s: %v", key, err)
		}
		return uint32(n), nil
	}
	from, err := parse("from", 0)
	if err != nil {
		return flow.Interval{}, err
	}
	to, err := parse("to", ^uint32(0))
	if err != nil {
		return flow.Interval{}, err
	}
	return flow.Interval{Start: from, End: to}, nil
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	// The span probe doubles as the liveness check: in cluster mode an
	// unreachable peer fails it, which degrades the status but never
	// stops health from answering — the per-shard breakdown below names
	// the dead shard.
	status := "ok"
	span, ok, err := s.sys.Store().Span()
	if err != nil {
		status = "degraded"
		ok = false
	}
	jobsByState := map[rootcause.JobState]int{}
	for _, j := range s.sys.Jobs() {
		jobsByState[j.State]++
	}
	// Segment counts by on-disk format ("v1": n, "v2": m) so operators can
	// watch a migration converge; a per-segment header sniff is cheap at
	// the bin counts a store holds. Errors degrade to an absent field —
	// health must answer even over a half-written store.
	formats := map[string]int{}
	if counts, err := s.sys.Store().SegmentFormats(); err == nil {
		for v, n := range counts {
			formats[fmt.Sprintf("v%d", v)] = n
		}
	}
	health := map[string]any{
		"status":          status,
		"store_span":      span.String(),
		"has_data":        ok,
		"query_stats":     s.sys.QueryStats(),
		"segment_formats": formats,
		"write_format":    fmt.Sprintf("v%d", s.sys.Store().SegmentFormat()),
		"jobs":            jobsByState,
		"incidents":       s.sys.IncidentCounts(),
		"event_streams":   s.sseStreams.Load(),
	}
	// Live mode adds the streaming census: open bins, stream clock,
	// ingest rate, drops, watcher backlog and the automation counters.
	if st := s.sys.StreamStats(); st != nil {
		health["stream"] = st
	}
	// Sharded and cluster-mode systems add the per-shard breakdown: the
	// rollup above stays, each shard's counters and segment census (or
	// its error, for an unreachable peer) are listed alongside.
	if shards := s.sys.ShardStats(); shards != nil {
		perShard := make([]map[string]any, len(shards))
		for i, sh := range shards {
			row := map[string]any{"shard": sh.Shard}
			if sh.Err != "" {
				row["error"] = sh.Err
			} else {
				row["query_stats"] = sh.Stats
				f := map[string]int{}
				for v, n := range sh.Formats {
					f[fmt.Sprintf("v%d", v)] = n
				}
				row["segment_formats"] = f
			}
			perShard[i] = row
		}
		health["shards"] = perShard
	}
	writeJSON(w, http.StatusOK, health)
}

func (s *server) handleDetectors(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"detectors": rootcause.DetectorNames(),
	})
}

func (s *server) handleMiners(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"miners": rootcause.MinerNames(),
	})
}

// extractOptions validates the optional miner and ranking selections
// from a request body and turns them into call options. Unknown names
// are the caller's mistake.
func extractOptions(minerName, ranking string) ([]rootcause.Option, error) {
	var opts []rootcause.Option
	if minerName != "" {
		if !slices.Contains(rootcause.MinerNames(), minerName) {
			return nil, fmt.Errorf("unknown miner %q (have %v)", minerName, rootcause.MinerNames())
		}
		opts = append(opts, rootcause.WithMiner(minerName))
	}
	switch ranking {
	case "":
	case rootcause.RankingSupport, rootcause.RankingLift, rootcause.RankingWeighted:
		opts = append(opts, rootcause.WithRanking(ranking))
	default:
		return nil, fmt.Errorf("unknown ranking %q (have %q, %q, %q)", ranking,
			rootcause.RankingSupport, rootcause.RankingLift, rootcause.RankingWeighted)
	}
	return opts, nil
}

func (s *server) handleDetect(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Detector string `json:"detector"`
		From     uint32 `json:"from"`
		To       uint32 `json:"to"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad body: %v", err))
		return
	}
	span := flow.Interval{Start: body.From, End: body.To}
	if body.To == 0 {
		span.End = ^uint32(0)
	}
	ids, err := s.sys.Detect(r.Context(), body.Detector, span)
	if err != nil {
		// Unknown detector / bad config is the caller's mistake; a failed
		// store scan is ours.
		status := http.StatusInternalServerError
		if errors.Is(err, rootcause.ErrDetectorSetup) {
			status = http.StatusBadRequest
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"alarm_ids": ids})
}

func (s *server) handleAlarms(w http.ResponseWriter, r *http.Request) {
	span, err := parseSpan(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, s.sys.Alarms(span))
}

func (s *server) handleAlarm(w http.ResponseWriter, r *http.Request) {
	entry, err := s.sys.Alarm(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, entry)
}

// extractResponse is the JSON shape of an extraction result.
type extractResponse struct {
	AlarmID          string        `json:"alarm_id"`
	CandidateFlows   uint64        `json:"candidate_flows"`
	CandidatePackets uint64        `json:"candidate_packets"`
	Prefiltered      bool          `json:"prefiltered"`
	Itemsets         []itemsetJSON `json:"itemsets"`
	Table            string        `json:"table"`
}

// itemsetJSON is one itemset row with its drill-down filter.
type itemsetJSON struct {
	Items         string  `json:"items"`
	FlowSupport   uint64  `json:"flow_support"`
	PacketSupport uint64  `json:"packet_support"`
	Score         float64 `json:"score"`
	Filter        string  `json:"filter"`
}

// toExtractResponse converts a result for the wire.
func toExtractResponse(id string, res *rootcause.Result) extractResponse {
	resp := extractResponse{
		AlarmID:          id,
		CandidateFlows:   res.CandidateFlows,
		CandidatePackets: res.CandidatePackets,
		Prefiltered:      res.Prefiltered,
		Table:            res.Table().String(),
	}
	for i := range res.Itemsets {
		rep := &res.Itemsets[i]
		resp.Itemsets = append(resp.Itemsets, itemsetJSON{
			Items:         rep.Items.String(),
			FlowSupport:   rep.FlowSupport,
			PacketSupport: rep.PacketSupport,
			Score:         rep.Score,
			Filter:        rep.Filter().String(),
		})
	}
	return resp
}

// submitError maps a Submit failure to an HTTP status: a full queue is
// 429 (with Retry-After, the admission-control contract), anything else
// is the caller's mistake.
func submitError(w http.ResponseWriter, err error) {
	if errors.Is(err, rootcause.ErrJobQueueFull) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	}
	writeError(w, http.StatusBadRequest, err)
}

func (s *server) handleExtract(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// The body is optional (legacy clients POST nothing); when present it
	// may select the miner and ranking mode.
	var body struct {
		Miner   string `json:"miner"`
		Ranking string `json:"ranking"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad body: %v", err))
		return
	}
	opts, err := extractOptions(body.Miner, body.Ranking)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The synchronous endpoint is a thin wrapper over the job manager:
	// submit + wait, the exact code path of POST /api/v1/jobs. The job
	// is transient — this handler is its only consumer, so the result
	// must not sit in retention after the response. A disconnecting
	// client cancels the job it was waiting for.
	jobID, err := s.sys.Submit(rootcause.JobRequest{AlarmID: id},
		append(opts, rootcause.WithTransientJob())...)
	if err != nil {
		submitError(w, err)
		return
	}
	res, err := s.sys.Wait(r.Context(), jobID)
	if err != nil {
		if r.Context().Err() != nil {
			s.sys.CancelJob(jobID)
			return
		}
		status := http.StatusBadRequest
		if errors.Is(err, alarmdb.ErrNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, toExtractResponse(id, res.Result))
}

// batchLine is one NDJSON line of /api/extract-batch and one entry of a
// batch job's /api/v1 result payload.
type batchLine struct {
	AlarmID string           `json:"alarm_id"`
	Error   string           `json:"error,omitempty"`
	Result  *extractResponse `json:"result,omitempty"`
}

// toBatchLine converts one per-alarm outcome for the wire.
func toBatchLine(res rootcause.ExtractResult) batchLine {
	line := batchLine{AlarmID: res.AlarmID}
	if res.Err != nil {
		line.Error = res.Err.Error()
	} else {
		resp := toExtractResponse(res.AlarmID, res.Result)
		line.Result = &resp
	}
	return line
}

// streamWriteTimeout bounds one streamed write (an NDJSON batch line or
// an SSE event) to the client. A stalled client — connected but not
// reading — must never pin a goroutine behind TCP backpressure: for the
// NDJSON sink that goroutine is a shared job-worker slot, for SSE it is
// the handler plus its subscription. The deadline turns the stall into
// a write error and the stream tears down.
const streamWriteTimeout = 30 * time.Second

// ndjsonSink streams batch results as NDJSON lines from the job's
// worker goroutine. close() fences late writes: once the handler
// returns (client disconnect) the worker must not touch the
// ResponseWriter again. onDead (set once after submit) is invoked when
// a write fails so the handler's job stops doing unobservable work.
type ndjsonSink struct {
	mu     sync.Mutex
	closed bool
	dead   bool // a write failed; skip the rest
	enc    *json.Encoder
	rc     *http.ResponseController
	onDead func()
}

func (n *ndjsonSink) write(res rootcause.ExtractResult) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.dead {
		return
	}
	// Per-line deadline: a client that stops reading makes Encode fail
	// instead of blocking the shared worker behind TCP backpressure.
	_ = n.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	if err := n.enc.Encode(toBatchLine(res)); err != nil {
		log.Printf("rcad: encode batch line: %v", err)
		n.dead = true
		if n.onDead != nil {
			n.onDead()
		}
		return
	}
	_ = n.rc.Flush()
}

// setOnDead installs the dead-client callback (after the job ID is
// known).
func (n *ndjsonSink) setOnDead(fn func()) {
	n.mu.Lock()
	n.onDead = fn
	dead := n.dead
	n.mu.Unlock()
	if dead {
		fn()
	}
}

func (n *ndjsonSink) close() {
	n.mu.Lock()
	n.closed = true
	// Clear the per-line deadline so a kept-alive connection is not
	// poisoned for its next request.
	_ = n.rc.SetWriteDeadline(time.Time{})
	n.mu.Unlock()
}

func (s *server) handleExtractBatch(w http.ResponseWriter, r *http.Request) {
	var body struct {
		AlarmIDs    []string `json:"alarm_ids"`
		Concurrency int      `json:"concurrency"`
		Miner       string   `json:"miner"`
		Ranking     string   `json:"ranking"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad body: %v", err))
		return
	}
	if len(body.AlarmIDs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("alarm_ids is empty"))
		return
	}
	opts, err := extractOptions(body.Miner, body.Ranking)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if body.Concurrency > 0 {
		opts = append(opts, rootcause.WithConcurrency(body.Concurrency))
	}
	// The synchronous NDJSON endpoint wraps a batch job: results stream
	// through a WithBatchResults sink as each alarm completes, while the
	// handler just waits for the job (canceling it when the client
	// disconnects mid-stream or stalls past the write deadline).
	sink := &ndjsonSink{enc: json.NewEncoder(w), rc: http.NewResponseController(w)}
	defer sink.close()
	// The content type must be set before the job's first line commits
	// the response; a Submit rejection below overrides it via writeError
	// (headers are uncommitted until the first write).
	w.Header().Set("Content-Type", "application/x-ndjson")
	jobID, err := s.sys.Submit(rootcause.JobRequest{AlarmIDs: body.AlarmIDs},
		append(opts, rootcause.WithBatchResults(sink.write), rootcause.WithTransientJob())...)
	if err != nil {
		w.Header().Del("Content-Type")
		submitError(w, err)
		return
	}
	// A dead client (stalled write) makes further extraction work
	// unobservable — cancel the job rather than finish it for no one.
	sink.setOnDead(func() { s.sys.CancelJob(jobID) })
	if _, err := s.sys.Wait(r.Context(), jobID); err != nil {
		if r.Context().Err() != nil {
			s.sys.CancelJob(jobID)
		}
		return
	}
}

// handleJobSubmit admits an extraction job: {"alarm_id":"1"} for a
// single extraction, {"alarm_ids":[...]} for a batch, or
// {"incident_id":"i1"} to extract a correlated incident — all with
// optional "miner" and batches with optional "concurrency". 202 with
// the queued job's status on admit; 429 + Retry-After when the queue is
// full.
func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var body struct {
		AlarmID     string   `json:"alarm_id"`
		AlarmIDs    []string `json:"alarm_ids"`
		IncidentID  string   `json:"incident_id"`
		Miner       string   `json:"miner"`
		Ranking     string   `json:"ranking"`
		Concurrency int      `json:"concurrency"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad body: %v", err))
		return
	}
	opts, err := extractOptions(body.Miner, body.Ranking)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if body.Concurrency > 0 {
		opts = append(opts, rootcause.WithConcurrency(body.Concurrency))
	}
	jobID, err := s.sys.Submit(rootcause.JobRequest{
		AlarmID:    body.AlarmID,
		AlarmIDs:   body.AlarmIDs,
		IncidentID: body.IncidentID,
	}, opts...)
	if err != nil {
		submitError(w, err)
		return
	}
	st, err := s.sys.Job(jobID)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"job": st})
}

func (s *server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.sys.Jobs()})
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.sys.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": st})
}

func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sys.CancelJob(id); err != nil {
		status := http.StatusNotFound
		if errors.Is(err, rootcause.ErrJobDone) {
			status = http.StatusConflict
		}
		writeError(w, status, err)
		return
	}
	st, err := s.sys.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"job": st})
}

// handleJobResult returns a finished job's outcome: {"job": status,
// "result": ...} for a done single extraction, {"job": status,
// "results": [...]} for a done batch, and just {"job": status} (the
// error is inside) for failed or canceled jobs. An unfinished job is a
// 409 so pollers can distinguish "not yet" from "gone" (404).
func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	jr, err := s.sys.JobResult(id)
	switch {
	case errors.Is(err, rootcause.ErrJobNotFound):
		writeError(w, http.StatusNotFound, err)
		return
	case errors.Is(err, rootcause.ErrJobNotDone):
		st, serr := s.sys.Job(id)
		if serr != nil {
			writeError(w, http.StatusNotFound, serr)
			return
		}
		writeJSON(w, http.StatusConflict, map[string]any{
			"error": "job not finished", "job": st,
		})
		return
	case err != nil:
		// Failed or canceled: the final status carries the error string.
		st, serr := s.sys.Job(id)
		if serr != nil {
			writeError(w, http.StatusNotFound, serr)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"job": st})
		return
	}
	out := map[string]any{"job": jr.Status}
	switch {
	case jr.Result != nil:
		out["result"] = toExtractResponse(alarmIDOf(jr), jr.Result)
	case jr.Batch != nil:
		lines := make([]batchLine, len(jr.Batch))
		for i, res := range jr.Batch {
			lines[i] = toBatchLine(res)
		}
		out["results"] = lines
	}
	writeJSON(w, http.StatusOK, out)
}

// alarmIDOf recovers the alarm ID of a single-extraction job result.
func alarmIDOf(jr *rootcause.JobResult) string {
	if jr.Result != nil {
		return jr.Result.Alarm.ID
	}
	return ""
}

// handleJobEvents streams a job's status as server-sent events: one
// "progress" event per state or progress change and a final "done"
// event with the terminal status, then the stream closes. A client
// disconnect detaches the subscription immediately.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	ch, cancel, err := s.sys.WatchJob(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	defer cancel()
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	s.sseStreams.Add(1)
	defer s.sseStreams.Add(-1)
	rc := http.NewResponseController(w)
	for {
		select {
		case <-r.Context().Done():
			return
		case st, open := <-ch:
			if !open {
				return
			}
			name := "progress"
			if st.State.Terminal() {
				name = "done"
			}
			raw, err := json.Marshal(st)
			if err != nil {
				return
			}
			// Per-event deadline: a client that stops reading must tear
			// the stream (and its subscription) down, not pin this
			// goroutine behind TCP backpressure forever.
			_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
			if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, raw); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

func (s *server) handleVerdict(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Validated bool   `json:"validated"`
		Note      string `json:"note"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad body: %v", err))
		return
	}
	if err := s.sys.SetVerdict(r.PathValue("id"), body.Validated, body.Note); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleFlows(w http.ResponseWriter, r *http.Request) {
	span, err := parseSpan(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	limit := 1000
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	flows, err := s.sys.Flows(r.Context(), span, r.URL.Query().Get("filter"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	total := len(flows)
	if len(flows) > limit {
		flows = flows[:limit]
	}
	lines := make([]string, len(flows))
	for i := range flows {
		lines[i] = flows[i].String()
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"total":    total,
		"returned": len(lines),
		"flows":    lines,
	})
}
