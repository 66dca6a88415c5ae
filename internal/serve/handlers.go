package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"swcam/internal/core"
	"swcam/internal/dycore"
	"swcam/internal/mesh"
	"swcam/internal/tc"
)

// Every error response is a typed JSON envelope:
//
//	{"error": {"code": "queue_full", "message": "..."}}
//
// so clients branch on stable codes, never on prose. Codes in use:
// bad_request, bad_deadline, unknown_field, unknown_member, queue_full,
// deadline_exceeded, no_snapshot, snapshot_torn, no_members.

type errEnvelope struct {
	Error errBody `json:"error"`
}

type errBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errEnvelope{Error: errBody{Code: code, Message: msg}})
}

// Staleness headers. A response served from a snapshot that is not the
// live head of a running member carries:
//
//	X-Swcam-Stale: recovering | quarantined | age
//	X-Swcam-Staleness-Ms: <snapshot age in wall ms>
//
// Degraded answers are explicit, never silent.
const (
	headerStale       = "X-Swcam-Stale"
	headerStalenessMs = "X-Swcam-Staleness-Ms"
	headerMembers     = "X-Swcam-Ensemble-Members"
)

// staleness classifies a member's snapshot: reason is "" when fresh.
func (s *Server) staleness(m *Member, meta Meta) (reason string, ageMs int64) {
	age := time.Since(meta.Taken)
	ageMs = age.Milliseconds()
	switch m.State() {
	case MemberRecovering:
		return "recovering", ageMs
	case MemberQuarantined:
		return "quarantined", ageMs
	}
	if sa := s.sup.cfg.StaleAfter; sa > 0 && age > sa {
		return "age", ageMs
	}
	return "", ageMs
}

func setStaleHeaders(w http.ResponseWriter, reason string, ageMs int64) {
	if reason != "" {
		w.Header().Set(headerStale, reason)
		w.Header().Set(headerStalenessMs, strconv.FormatInt(ageMs, 10))
	}
}

// memberParam parses ?member= (default 0) and bounds it.
func (s *Server) memberParam(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("member")
	if raw == "" {
		return 0, nil
	}
	i, err := strconv.Atoi(raw)
	if err != nil || i < 0 || i >= len(s.sup.members) {
		return 0, fmt.Errorf("member must be in [0, %d)", len(s.sup.members))
	}
	return i, nil
}

// intParam parses an integer query parameter within [lo, hi], with a
// default when absent.
func intParam(r *http.Request, name string, def, lo, hi int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < lo || v > hi {
		return 0, fmt.Errorf("%s must be an integer in [%d, %d]", name, lo, hi)
	}
	return v, nil
}

func floatParam(r *http.Request, name string, lo, hi float64) (float64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, fmt.Errorf("%s is required", name)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || v < lo || v > hi {
		return 0, fmt.Errorf("%s must be a number in [%g, %g]", name, lo, hi)
	}
	return v, nil
}

// fieldSlice resolves a field name against a state: the backing array,
// its level count, and whether it had to be derived.
func fieldSlice(s *dycore.Solver, st *dycore.State, name string) (data [][]float64, nlev int, err error) {
	switch name {
	case "U":
		return st.U, st.Nlev, nil
	case "V":
		return st.V, st.Nlev, nil
	case "T":
		return st.T, st.Nlev, nil
	case "DP":
		return st.DP, st.Nlev, nil
	case "PHIS":
		return st.Phis, 1, nil
	case "PS":
		// Derived: one pseudo-level of surface pressure.
		npsq := s.Cfg.Np * s.Cfg.Np
		ps := make([][]float64, len(st.DP))
		for ei := range ps {
			row := make([]float64, npsq)
			for n := 0; n < npsq; n++ {
				row[n] = st.SurfacePressure(ei, n)
			}
			ps[ei] = row
		}
		return ps, 1, nil
	}
	return nil, 0, fmt.Errorf("unknown field %q (U|V|T|DP|PHIS|PS)", name)
}

// readMember fetches the member's latest decoded snapshot, mapping
// store errors to HTTP responses. Returns ok=false after writing the
// error.
func (s *Server) readMember(w http.ResponseWriter, idx int) (*dycore.State, Meta, bool) {
	st, meta, err := s.sup.store.Read(idx)
	if err == nil {
		return st, meta, true
	}
	switch {
	case errors.Is(err, ErrNoSnapshot):
		writeErr(w, http.StatusNotFound, "no_snapshot",
			fmt.Sprintf("member %d has not published a snapshot yet", idx))
	case errors.Is(err, ErrTornSnapshot):
		writeErr(w, http.StatusServiceUnavailable, "snapshot_torn",
			fmt.Sprintf("member %d snapshot unreadable; retry", idx))
	default:
		writeErr(w, http.StatusInternalServerError, "internal", err.Error())
	}
	return nil, Meta{}, false
}

// samplers caches lat-lon samplers per grid shape: building one walks
// the whole mesh, so a steady query mix pays that once per shape.
type samplers struct {
	mu    sync.Mutex
	cache map[[2]int]*core.Sampler
}

func (sc *samplers) get(m *mesh.Mesh, nlon, nlat int) *core.Sampler {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.cache == nil {
		sc.cache = map[[2]int]*core.Sampler{}
	}
	key := [2]int{nlon, nlat}
	if sp, ok := sc.cache[key]; ok {
		return sp
	}
	sp := core.NewSampler(m, nlon, nlat)
	sc.cache[key] = sp
	return sp
}

// GET /v1/config — the effective model and ensemble configuration, the
// contract a load generator or client calibrates itself against.
func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	c := s.sup.cfg
	writeJSON(w, http.StatusOK, map[string]any{
		"members":     c.Members,
		"ne":          c.Dycore.Ne,
		"np":          c.Dycore.Np,
		"nlev":        c.Dycore.Nlev,
		"qsize":       c.Dycore.Qsize,
		"dt_seconds":  c.Dycore.Dt,
		"cycle_steps": c.CycleSteps,
		"ranks":       c.Ranks,
		"ic":          c.IC,
		"perturb_amp": c.PerturbAmp,
		"seed":        c.Seed,
	})
}

type memberStatus struct {
	Member    int     `json:"member"`
	State     string  `json:"state"`
	Restarts  int64   `json:"restarts"`
	LastError string  `json:"last_error,omitempty"`
	Version   int64   `json:"snapshot_version"`
	Step      int     `json:"snapshot_step"`
	SimHours  float64 `json:"sim_hours"`
	AgeMs     int64   `json:"snapshot_age_ms"`
}

// GET /v1/members — supervision state of every member.
func (s *Server) handleMembers(w http.ResponseWriter, r *http.Request) {
	out := make([]memberStatus, 0, len(s.sup.members))
	for i, m := range s.sup.members {
		ms := memberStatus{
			Member:    i,
			State:     m.State().String(),
			Restarts:  m.Restarts(),
			LastError: m.LastError(),
		}
		if meta, ok := s.sup.store.Latest(i); ok {
			ms.Version = meta.Version
			ms.Step = meta.Step
			ms.SimHours = meta.SimHours
			ms.AgeMs = time.Since(meta.Taken).Milliseconds()
		}
		out = append(out, ms)
	}
	writeJSON(w, http.StatusOK, map[string]any{"members": out})
}

// GET /v1/field?member=&field=T&level=&nlon=&nlat= — a lat-lon slice of
// one member's field, sampled on a regular grid.
func (s *Server) handleField(w http.ResponseWriter, r *http.Request) {
	idx, err := s.memberParam(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, "unknown_member", err.Error())
		return
	}
	name := r.URL.Query().Get("field")
	if name == "" {
		name = "PS"
	}
	nlon, err := intParam(r, "nlon", 72, 1, 2048)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	nlat, err := intParam(r, "nlat", 36, 1, 1024)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	st, meta, ok := s.readMember(w, idx)
	if !ok {
		return
	}
	data, nlev, err := fieldSlice(s.sup.solver, st, name)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "unknown_field", err.Error())
		return
	}
	level, err := intParam(r, "level", nlev-1, 0, nlev-1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	sp := s.samplers.get(s.sup.solver.Mesh, nlon, nlat)
	grid := make([]float64, nlon*nlat)
	npsq := s.sup.solver.Cfg.Np * s.sup.solver.Cfg.Np
	sp.Sample(data, level, npsq, grid)

	reason, ageMs := s.staleness(s.sup.members[idx], meta)
	setStaleHeaders(w, reason, ageMs)
	writeJSON(w, http.StatusOK, map[string]any{
		"member": idx, "field": name, "level": level,
		"nlon": nlon, "nlat": nlat,
		"step": meta.Step, "sim_hours": meta.SimHours,
		"snapshot_version": meta.Version,
		"values":           grid,
	})
}

// GET /v1/point?member=&field=&level=&lon=&lat= — point forecast at the
// nearest GLL node to (lon, lat) in degrees.
func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	idx, err := s.memberParam(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, "unknown_member", err.Error())
		return
	}
	lonDeg, err := floatParam(r, "lon", -360, 360)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	latDeg, err := floatParam(r, "lat", -90, 90)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	name := r.URL.Query().Get("field")
	if name == "" {
		name = "T"
	}
	st, meta, ok := s.readMember(w, idx)
	if !ok {
		return
	}
	data, nlev, err := fieldSlice(s.sup.solver, st, name)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "unknown_field", err.Error())
		return
	}
	level, err := intParam(r, "level", nlev-1, 0, nlev-1)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	target := lonLatToCart(lonDeg*math.Pi/180, latDeg*math.Pi/180)
	npsq := s.sup.solver.Cfg.Np * s.sup.solver.Cfg.Np
	bestD := math.Inf(1)
	bestE, bestN := 0, 0
	for ei, e := range s.sup.solver.Mesh.Elements {
		for n := 0; n < npsq; n++ {
			if d := mesh.GreatCircleDist(target, e.Pos[n]); d < bestD {
				bestD, bestE, bestN = d, ei, n
			}
		}
	}
	el := s.sup.solver.Mesh.Elements[bestE]

	reason, ageMs := s.staleness(s.sup.members[idx], meta)
	setStaleHeaders(w, reason, ageMs)
	writeJSON(w, http.StatusOK, map[string]any{
		"member": idx, "field": name, "level": level,
		"lon_deg": lonDeg, "lat_deg": latDeg,
		"node_lon_deg": el.Lon[bestN] * 180 / math.Pi,
		"node_lat_deg": el.Lat[bestN] * 180 / math.Pi,
		"value":        data[bestE][level*npsq+bestN],
		"step":         meta.Step, "sim_hours": meta.SimHours,
	})
}

// GET /v1/ensemble?field=&level=&nlon=&nlat= — pointwise mean and
// spread (population std dev) across every member that can currently
// contribute a snapshot. Quarantined members are excluded; if fewer
// than the full ensemble contribute, the X-Swcam-Ensemble-Members
// header reports the k/n subensemble and the response is marked stale
// if any contributor is.
func (s *Server) handleEnsemble(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("field")
	if name == "" {
		name = "PS"
	}
	nlon, err := intParam(r, "nlon", 72, 1, 2048)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}
	nlat, err := intParam(r, "nlat", 36, 1, 1024)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
		return
	}

	n := len(s.sup.members)
	npsq := s.sup.solver.Cfg.Np * s.sup.solver.Cfg.Np
	var sp *core.Sampler
	grid := make([]float64, nlon*nlat)
	mean := make([]float64, nlon*nlat)
	m2 := make([]float64, nlon*nlat)
	level := -1
	contributors := 0
	worstReason := ""
	var worstAge int64
	minStep, maxStep := math.MaxInt32, -1

	for i, m := range s.sup.members {
		if m.State() == MemberQuarantined {
			// A quarantined member's frozen snapshot would poison the
			// statistics with an old state; the ensemble degrades to the
			// surviving subensemble instead.
			continue
		}
		st, meta, err := s.sup.store.Read(i)
		if err != nil {
			continue
		}
		data, nlev, ferr := fieldSlice(s.sup.solver, st, name)
		if ferr != nil {
			writeErr(w, http.StatusBadRequest, "unknown_field", ferr.Error())
			return
		}
		if level < 0 {
			level, err = intParam(r, "level", nlev-1, 0, nlev-1)
			if err != nil {
				writeErr(w, http.StatusBadRequest, "bad_request", err.Error())
				return
			}
			sp = s.samplers.get(s.sup.solver.Mesh, nlon, nlat)
		}
		sp.Sample(data, level, npsq, grid)
		contributors++
		// Welford accumulation: numerically stable spread in one pass.
		for g := range grid {
			d := grid[g] - mean[g]
			mean[g] += d / float64(contributors)
			m2[g] += d * (grid[g] - mean[g])
		}
		if reason, age := s.staleness(m, meta); reason != "" {
			worstReason = reason
			if age > worstAge {
				worstAge = age
			}
		}
		if meta.Step < minStep {
			minStep = meta.Step
		}
		if meta.Step > maxStep {
			maxStep = meta.Step
		}
	}
	if contributors == 0 {
		writeErr(w, http.StatusServiceUnavailable, "no_members",
			"no member can currently contribute a snapshot")
		return
	}
	spread := m2 // reuse
	for g := range spread {
		spread[g] = math.Sqrt(m2[g] / float64(contributors))
	}
	w.Header().Set(headerMembers, fmt.Sprintf("%d/%d", contributors, n))
	setStaleHeaders(w, worstReason, worstAge)
	writeJSON(w, http.StatusOK, map[string]any{
		"field": name, "level": level,
		"nlon": nlon, "nlat": nlat,
		"members": contributors, "ensemble_size": n,
		"min_step": minStep, "max_step": maxStep,
		"mean": mean, "spread": spread,
	})
}

// GET /v1/track?member= — the member's TC track: every fix located so
// far plus the current one. Fixes are computed lazily per snapshot
// version and cached, so the track grows as the forecast advances.
func (s *Server) handleTrack(w http.ResponseWriter, r *http.Request) {
	idx, err := s.memberParam(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, "unknown_member", err.Error())
		return
	}
	st, meta, ok := s.readMember(w, idx)
	if !ok {
		return
	}

	s.trackMu.Lock()
	hist := s.tracks[idx]
	if hist == nil || hist.version < meta.Version {
		var prev *tc.Fix
		if hist != nil && len(hist.fixes) > 0 {
			prev = &hist.fixes[len(hist.fixes)-1]
		}
		tr := tc.NewTracker()
		fix := tr.Locate(s.sup.solver, st, meta.SimHours, prev)
		warm := tr.WarmCore(s.sup.solver, st, fix)
		if hist == nil {
			hist = &trackHistory{}
			if s.tracks == nil {
				s.tracks = map[int]*trackHistory{}
			}
			s.tracks[idx] = hist
		}
		hist.version = meta.Version
		hist.fixes = append(hist.fixes, fix)
		hist.warm = warm
	}
	fixes := make([]tc.Fix, len(hist.fixes))
	copy(fixes, hist.fixes)
	warm := hist.warm
	s.trackMu.Unlock()

	reason, ageMs := s.staleness(s.sup.members[idx], meta)
	setStaleHeaders(w, reason, ageMs)
	writeJSON(w, http.StatusOK, map[string]any{
		"member": idx, "warm_core": warm,
		"step": meta.Step, "sim_hours": meta.SimHours,
		"fixes": fixes,
	})
}

// GET /v1/metrics — the obs registry counters and gauges, for scraping.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		writeJSON(w, http.StatusOK, []any{})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = s.reg.WriteJSON(w)
}

type trackHistory struct {
	version int64
	fixes   []tc.Fix
	warm    bool
}

func lonLatToCart(lon, lat float64) mesh.Vec3 {
	cl := math.Cos(lat)
	return mesh.Vec3{cl * math.Cos(lon), cl * math.Sin(lon), math.Sin(lat)}
}
