package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"coldboot/internal/fleet"
	"coldboot/internal/service"
)

// daemon is an in-process coldbootd coordinator with two fleet workers,
// configured as cmd/coldbootd's defaults configure it: two concurrent
// jobs, one attempt per job, a durable data dir (the WAL fsyncs every
// lifecycle event) and the workers' default idle poll.
type daemon struct {
	svc      *service.Server
	srv      *http.Server
	base     string
	serveErr chan error
	stopWork context.CancelFunc
	workers  sync.WaitGroup
}

// startDaemon boots the daemon on a loopback port. With a tracer, the
// service and the workers report into its Collector, and every API call is
// timed by handler middleware and by the workers' transport.
func startDaemon(dataDir string, t *tracer) (*daemon, error) {
	svc, err := service.New(service.Config{
		Workers:     2,
		MaxAttempts: 1,
		DataDir:     dataDir,
		Role:        service.RoleCoordinator,
		Tracer:      t.obsTracer(),
	})
	if err != nil {
		return nil, fmt.Errorf("starting service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain(context.Background())
		return nil, err
	}
	handler := svc.Handler()
	if t != nil {
		handler = t.middleware(handler)
	}
	d := &daemon{
		svc:      svc,
		srv:      &http.Server{Handler: handler},
		base:     "http://" + ln.Addr().String(),
		serveErr: make(chan error, 1),
	}
	go func() { d.serveErr <- d.srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	d.stopWork = cancel
	for i := 1; i <= 2; i++ {
		w := &fleet.Worker{
			Base:   d.base,
			Name:   fmt.Sprintf("w-%d", i),
			Client: newClient(t),
			Tracer: t.obsTracer(),
		}
		d.workers.Add(1)
		go func() {
			defer d.workers.Done()
			w.Run(ctx)
		}()
	}
	return d, nil
}

// stop drains the service, stops the workers and closes the listener,
// returning once every goroutine the daemon started has ended.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	drainErr := d.svc.Drain(ctx)
	d.stopWork()
	d.workers.Wait()
	shutErr := d.srv.Shutdown(ctx)
	if err := <-d.serveErr; !errors.Is(err, http.ErrServerClosed) && shutErr == nil {
		shutErr = err
	}
	return errors.Join(drainErr, shutErr)
}

// jobResult is what a client learns about one finished job.
type jobResult struct {
	id string
	// fingerprints are the redacted identities of the returned keys.
	fingerprints []string
	// queueWait is submit-to-start, from the job's status document
	// (traced pass only).
	queueWait time.Duration
}

// analyzeRemote submits one container, waits for the job's event stream
// to end, and fetches the result document: the closed-loop client's op.
func analyzeRemote(ctx context.Context, c *http.Client, base string, container []byte, withStatus bool) (jobResult, error) {
	var res jobResult
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(container))
	if err != nil {
		return res, err
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := doJSON(c, req, http.StatusCreated, &submitted); err != nil {
		return res, fmt.Errorf("submit: %w", err)
	}
	res.id = submitted.ID

	// The event stream ends when the job reaches a terminal state.
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+res.id+"/events", nil)
	if err != nil {
		return res, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return res, fmt.Errorf("events: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return res, fmt.Errorf("events: %w", err)
	}

	var report struct {
		Partial bool `json:"partial"`
		Keys    []struct {
			Fingerprint string `json:"fingerprint"`
		} `json:"keys"`
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+res.id+"/result", nil)
	if err != nil {
		return res, err
	}
	if err := doJSON(c, req, http.StatusOK, &report); err != nil {
		return res, fmt.Errorf("result: %w", err)
	}
	if report.Partial {
		return res, fmt.Errorf("job %s: partial result", res.id)
	}
	for _, k := range report.Keys {
		res.fingerprints = append(res.fingerprints, k.Fingerprint)
	}
	if withStatus {
		res.queueWait, err = queueWait(ctx, c, base, res.id)
	}
	return res, err
}

// queueWait reads a finished job's submit-to-start wait from its status
// document.
func queueWait(ctx context.Context, c *http.Client, base, id string) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+id, nil)
	if err != nil {
		return 0, err
	}
	var status struct {
		SubmittedAt time.Time `json:"submitted_at"`
		StartedAt   time.Time `json:"started_at"`
	}
	if err := doJSON(c, req, http.StatusOK, &status); err != nil {
		return 0, fmt.Errorf("status: %w", err)
	}
	return status.StartedAt.Sub(status.SubmittedAt), nil
}

func doJSON(c *http.Client, req *http.Request, want int, out any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
