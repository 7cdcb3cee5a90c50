package server

import (
	"fmt"
	"sync"
	"time"

	"repro/wire"
)

// Job states (wire constants, re-exported for the server's own use).
const (
	JobRunning = wire.JobRunning
	JobDone    = wire.JobDone
	JobFailed  = wire.JobFailed
)

// job is one admitted discovery, sync or async. Async jobs are queryable
// at /v1/jobs/{id} until pruned.
type job struct {
	id        string
	dataset   string
	algorithm string
	created   time.Time

	mu       sync.Mutex
	state    string
	finished time.Time
	resp     *DiscoverResponse
	errMsg   string
}

func (j *job) finish(resp *DiscoverResponse, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finished = time.Now()
	j.resp = resp
	j.errMsg = errMsg
	if resp == nil {
		j.state = JobFailed
	} else {
		j.state = JobDone
	}
}

func (j *job) info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:        j.id,
		Dataset:   j.dataset,
		Algorithm: j.algorithm,
		State:     j.state,
		Created:   j.created,
		Error:     j.errMsg,
		Result:    j.resp,
	}
	if !j.finished.IsZero() {
		info.Finished = &j.finished
	}
	return info
}

// jobQueue is the admission controller: at most cap discoveries (sync
// requests and async jobs alike) run concurrently; everything beyond is
// rejected at submission time — never queued unboundedly — and the
// handler answers 429 with Retry-After. Finished async jobs are retained
// for polling, pruned oldest-first past maxRecords.
type jobQueue struct {
	mu         sync.Mutex
	counts     JobQueueStats // Retained is filled in by stats
	nextID     int
	jobs       map[string]*job
	order      []string // creation order of retained async jobs
	maxRecords int
}

func newJobQueue(capJobs, maxRecords int) *jobQueue {
	return &jobQueue{counts: JobQueueStats{Cap: capJobs}, maxRecords: maxRecords, jobs: make(map[string]*job)}
}

// tryAdmit claims one execution slot; the caller must release() it when
// the discovery finishes. It never blocks: a full queue is the caller's
// cue to answer 429.
func (q *jobQueue) tryAdmit() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	c := &q.counts
	if c.Running >= c.Cap {
		c.Rejected++
		return false
	}
	c.Running++
	c.Admitted++
	c.PeakRunning = max(c.PeakRunning, c.Running)
	return true
}

func (q *jobQueue) release() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.counts.Running--
}

// add registers an async job record (the slot must already be admitted).
func (q *jobQueue) add(dataset, algorithm string) *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%d", q.nextID),
		dataset:   dataset,
		algorithm: algorithm,
		created:   time.Now(),
		state:     JobRunning,
	}
	q.jobs[j.id] = j
	q.order = append(q.order, j.id)
	// Prune oldest finished records over the retention cap; running jobs
	// are never pruned.
	for q.maxRecords > 0 && len(q.jobs) > q.maxRecords {
		pruned := false
		for i, id := range q.order {
			old := q.jobs[id]
			old.mu.Lock()
			done := old.state != JobRunning
			old.mu.Unlock()
			if done {
				delete(q.jobs, id)
				q.order = append(q.order[:i], q.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			break
		}
	}
	return j
}

func (q *jobQueue) get(id string) (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

func (q *jobQueue) stats() JobQueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	st := q.counts
	st.Retained = len(q.jobs)
	return st
}
