package scenario

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"sae/internal/chaos"
	"sae/internal/conf"
	"sae/internal/exp"
	"sae/internal/workloads"
	"sae/scenarios"
)

// Version is the spec schema version this build reads and writes.
const Version = 1

// Spec kinds. Each kind selects one of the exp.Runner matrix primitives
// (or a single engine run) and fixes which fields the spec may carry.
const (
	KindSingle        = "single"
	KindChaosMatrix   = "chaos-matrix"
	KindTenantMatrix  = "tenant-matrix"
	KindArrivalMatrix = "arrival-matrix"
)

// Spec is one declarative scenario: the environment, the load, and the
// question, as data. A Spec is pure data — parsing attaches no positions,
// so Parse(Marshal(sp)) round-trips to a reflect.DeepEqual spec.
type Spec struct {
	// Version pins the schema; unknown versions are rejected.
	Version int
	// Name labels the scenario in errors, listings and reports.
	Name string
	// Description is the one-line summary `sae-exp -list` shows.
	Description string
	// Kind selects the execution shape (see the Kind constants).
	Kind string
	// Cluster shapes the simulated environment; zero fields inherit the
	// paper defaults (4 nodes, scale 1, seed 1, HDD).
	Cluster ClusterSpec
	// Conf holds configuration overrides, validated against the catalogue.
	Conf map[string]string

	// Workload names the job for single and chaos-matrix kinds.
	Workload string
	// Policy is the sizing policy of a single run.
	Policy string
	// Chaos is a single run's absolute-time chaos spec (chaos.Parse grammar).
	Chaos string
	// Expect holds a single run's output assertions.
	Expect *ExpectSpec

	// Policies and Schedules span the chaos matrix; Report selects its
	// result preset ("faults" or "grayfail").
	Policies  []string
	Schedules []string
	Report    string

	// Mixes and Schedulers span the tenant matrix (with Policies).
	Mixes      []MixSpec
	Schedulers []string

	// Arrival spans the arrival matrix.
	Arrival *ArrivalMatrixSpec
}

// ClusterSpec shapes the simulated cluster. Zero values inherit defaults.
type ClusterSpec struct {
	Nodes int
	Scale float64
	Seed  int64
	// Disk is "hdd" (default) or "ssd".
	Disk string
}

// ExpectSpec is a single run's assertion block; nil pointers are unchecked.
type ExpectSpec struct {
	// MaxRuntimeSec bounds the job runtime (0 = unchecked).
	MaxRuntimeSec float64
	// MaxLostExecutors bounds executor losses (nil = unchecked; 0 asserts
	// a loss-free run).
	MaxLostExecutors *int
	// MinRecoveredGiB asserts the recovery machinery actually engaged.
	MinRecoveredGiB float64
}

// MixSpec is one named workload mix of a tenant matrix.
type MixSpec struct {
	Name      string
	Workloads []string
}

// ArrivalMatrixSpec spans the open-loop elasticity comparison.
type ArrivalMatrixSpec struct {
	Tenants  []TenantSpec
	Arrivals []ArrivalProcSpec
	Configs  []ProvisionSpec
	// Capacity is the physical fleet size: an integer, or "Nx" for N times
	// the cluster node count.
	Capacity string
	// Horizon bounds each generated schedule.
	Horizon time.Duration
	// MaxJobs caps arrivals at cluster scale 1; it scales with the cluster
	// scale, never below MinJobs.
	MaxJobs int
	MinJobs int
	// SLOFactor and Baseline define the p99 verdicts (0 selects 1.5).
	SLOFactor float64
	Baseline  string
}

// TenantSpec is one tenant class with its workload shape. Blocks is the
// per-job input in 64 MiB blocks at cluster scale 1; it scales with the
// cluster scale, never below MinBlocks.
type TenantSpec struct {
	Name      string
	Weight    float64
	Priority  int
	Blocks    int
	MinBlocks int
}

// ArrivalProcSpec is one named arrival process.
type ArrivalProcSpec struct {
	Name string
	// Process is "poisson", "bursty" or "diurnal".
	Process string
	// Rate is the Poisson rate (jobs/sec).
	Rate float64
	// OnRate/OffRate/On/Off shape the bursty process.
	OnRate  float64
	OffRate float64
	On      time.Duration
	Off     time.Duration
	// Period/Rates shape the diurnal process.
	Period time.Duration
	Rates  []float64
}

// ProvisionSpec is one provisioning configuration.
type ProvisionSpec struct {
	Name string
	// Policy is "static", "reactive" or "adaptive".
	Policy string
	// Initial is the starting fleet: an integer, "capacity", or "small"
	// (a third of capacity, at least 2).
	Initial string
	// Adaptive planner knobs (zero = the planner's zero value).
	Alpha           float64
	DrainTarget     time.Duration
	Headroom        float64
	MinSamplePeriod time.Duration
}

// Load reads and parses the scenario file at path.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(path, data)
}

// Builtin returns the committed spec scenarios/<name>.yaml, as embedded in
// the binary.
func Builtin(name string) (*Spec, error) {
	data, err := scenarios.FS.ReadFile(name + ".yaml")
	if err != nil {
		return nil, fmt.Errorf("scenario: no built-in spec %q", name)
	}
	return Parse("scenarios/"+name+".yaml", data)
}

// Parse decodes and validates one scenario document. name prefixes every
// error ("faults.yaml:12: ..."); errors are positional down to the field.
// YAML is the native syntax; a document whose first byte is '{' is decoded
// as JSON (with field-path rather than line positions).
func Parse(name string, data []byte) (*Spec, error) {
	var root *node
	var err error
	if isJSON(data) {
		root, err = parseJSON(data)
	} else {
		root, err = parseYAML(data)
	}
	if err != nil {
		return nil, posErr(name, err)
	}
	d := &dec{file: name}
	sp, err := d.spec(root)
	if err != nil {
		return nil, err
	}
	return sp, nil
}

// posErr prefixes a parser error with the file name, folding the parser's
// "line N: msg" form into the decoder's "file:N: msg" position format.
func posErr(name string, err error) error {
	msg := err.Error()
	if rest, ok := strings.CutPrefix(msg, "line "); ok {
		if i := strings.Index(rest, ": "); i > 0 {
			if _, aerr := strconv.Atoi(rest[:i]); aerr == nil {
				return fmt.Errorf("%s:%s:%s", name, rest[:i], rest[i+1:])
			}
		}
	}
	return fmt.Errorf("%s: %s", name, msg)
}

func isJSON(data []byte) bool {
	for _, c := range data {
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		case '{':
			return true
		default:
			return false
		}
	}
	return false
}

// dec decodes a node tree into a Spec, validating as it goes so every
// error points at the offending field.
type dec struct {
	file string
}

func (d *dec) errf(n *node, format string, args ...any) error {
	msg := fmt.Sprintf(format, args...)
	if n != nil && n.line > 0 {
		return fmt.Errorf("%s:%d: %s", d.file, n.line, msg)
	}
	return fmt.Errorf("%s: %s", d.file, msg)
}

// fields wraps one mapping node, tracking which keys the decoder consumed
// so leftovers are rejected as unknown fields.
type fields struct {
	d    *dec
	n    *node
	ctx  string
	used map[string]bool
}

func (d *dec) fields(n *node, ctx string) (*fields, error) {
	if n.kind != mappingNode {
		return nil, d.errf(n, "%s must be a mapping, got a %s", ctx, n.kindName())
	}
	return &fields{d: d, n: n, ctx: ctx, used: map[string]bool{}}, nil
}

// finish rejects the first unconsumed key, in declaration order.
func (f *fields) finish() error {
	for _, key := range f.n.keys {
		if !f.used[key] {
			return f.d.errf(f.n.children[key], "unknown field %q in %s", key, f.ctx)
		}
	}
	return nil
}

func (f *fields) get(key string) (*node, bool) {
	n, ok := f.n.children[key]
	if ok {
		f.used[key] = true
	}
	return n, ok
}

func (f *fields) scalar(key string) (*node, bool, error) {
	n, ok := f.get(key)
	if !ok {
		return nil, false, nil
	}
	if n.kind != scalarNode {
		return nil, false, f.d.errf(n, "field %q must be a scalar, got a %s", key, n.kindName())
	}
	return n, true, nil
}

func (f *fields) str(key string) (string, *node, error) {
	n, ok, err := f.scalar(key)
	if err != nil || !ok {
		return "", nil, err
	}
	return n.val, n, nil
}

// reqStr returns a required string field.
func (f *fields) reqStr(key string) (string, *node, error) {
	v, n, err := f.str(key)
	if err != nil {
		return "", nil, err
	}
	if n == nil || v == "" {
		return "", nil, f.d.errf(f.n, "%s: missing required field %q", f.ctx, key)
	}
	return v, n, nil
}

func (f *fields) integer(key string) (int64, *node, error) {
	n, ok, err := f.scalar(key)
	if err != nil || !ok {
		return 0, nil, err
	}
	v, perr := strconv.ParseInt(n.val, 10, 64)
	if perr != nil {
		return 0, nil, f.d.errf(n, "field %q: %q is not an integer", key, n.val)
	}
	return v, n, nil
}

func (f *fields) float(key string) (float64, *node, error) {
	n, ok, err := f.scalar(key)
	if err != nil || !ok {
		return 0, nil, err
	}
	v, perr := strconv.ParseFloat(n.val, 64)
	if perr != nil {
		return 0, nil, f.d.errf(n, "field %q: %q is not a number", key, n.val)
	}
	return v, n, nil
}

func (f *fields) duration(key string) (time.Duration, *node, error) {
	n, ok, err := f.scalar(key)
	if err != nil || !ok {
		return 0, nil, err
	}
	v, perr := time.ParseDuration(n.val)
	if perr != nil {
		return 0, nil, f.d.errf(n, "field %q: %q is not a duration (want e.g. 45s, 6m)", key, n.val)
	}
	return v, n, nil
}

// strings decodes a sequence-of-scalars field.
func (f *fields) strings(key string) ([]string, *node, error) {
	n, ok := f.get(key)
	if !ok {
		return nil, nil, nil
	}
	if n.kind != sequenceNode {
		return nil, nil, f.d.errf(n, "field %q must be a sequence, got a %s", key, n.kindName())
	}
	var out []string
	for _, item := range n.seq {
		if item.kind != scalarNode {
			return nil, nil, f.d.errf(item, "field %q items must be scalars, got a %s", key, item.kindName())
		}
		out = append(out, item.val)
	}
	return out, n, nil
}

func (f *fields) sequence(key string) ([]*node, *node, error) {
	n, ok := f.get(key)
	if !ok {
		return nil, nil, nil
	}
	if n.kind != sequenceNode {
		return nil, nil, f.d.errf(n, "field %q must be a sequence, got a %s", key, n.kindName())
	}
	return n.seq, n, nil
}

// spec decodes and validates the document root.
func (d *dec) spec(root *node) (*Spec, error) {
	f, err := d.fields(root, "scenario spec")
	if err != nil {
		return nil, err
	}
	sp := &Spec{}

	// Version gates everything else: a future schema may change any field,
	// so nothing is interpreted before the version is known good.
	v, vn, err := f.integer("version")
	if err != nil {
		return nil, err
	}
	if vn == nil {
		return nil, d.errf(root, "missing required field \"version\" (this build supports version %d)", Version)
	}
	if v != Version {
		return nil, d.errf(vn, "unsupported spec version %d (this build supports version %d)", v, Version)
	}
	sp.Version = int(v)

	if sp.Name, _, err = f.reqStr("name"); err != nil {
		return nil, err
	}
	if sp.Description, _, err = f.str("description"); err != nil {
		return nil, err
	}
	kind, kn, err := f.reqStr("kind")
	if err != nil {
		return nil, err
	}
	sp.Kind = kind

	if cn, ok := f.get("cluster"); ok {
		if err := d.cluster(cn, &sp.Cluster); err != nil {
			return nil, err
		}
	}
	if cn, ok := f.get("conf"); ok {
		if sp.Conf, err = d.conf(cn); err != nil {
			return nil, err
		}
	}

	switch kind {
	case KindSingle:
		err = d.single(f, sp)
	case KindChaosMatrix:
		err = d.chaosMatrix(f, sp)
	case KindTenantMatrix:
		err = d.tenantMatrix(f, sp)
	case KindArrivalMatrix:
		err = d.arrivalMatrix(f, sp)
	default:
		return nil, d.errf(kn, "unknown kind %q (want %s, %s, %s or %s)",
			kind, KindSingle, KindChaosMatrix, KindTenantMatrix, KindArrivalMatrix)
	}
	if err != nil {
		return nil, err
	}
	if err := f.finish(); err != nil {
		return nil, err
	}
	return sp, nil
}

func (d *dec) cluster(n *node, c *ClusterSpec) error {
	f, err := d.fields(n, "cluster")
	if err != nil {
		return err
	}
	v, vn, err := f.integer("nodes")
	if err != nil {
		return err
	}
	if vn != nil {
		if v <= 0 {
			return d.errf(vn, "field \"nodes\": must be positive, got %d", v)
		}
		c.Nodes = int(v)
	}
	s, sn, err := f.float("scale")
	if err != nil {
		return err
	}
	if sn != nil {
		if s <= 0 {
			return d.errf(sn, "field \"scale\": must be positive, got %v", s)
		}
		c.Scale = s
	}
	if c.Seed, _, err = f.integer("seed"); err != nil {
		return err
	}
	disk, dn, err := f.str("disk")
	if err != nil {
		return err
	}
	if dn != nil {
		if disk != "hdd" && disk != "ssd" {
			return d.errf(dn, "field \"disk\": unknown device %q (want hdd or ssd)", disk)
		}
		c.Disk = disk
	}
	return f.finish()
}

func (d *dec) conf(n *node) (map[string]string, error) {
	if n.kind != mappingNode {
		return nil, d.errf(n, "conf must be a mapping of parameter overrides, got a %s", n.kindName())
	}
	catalogue := conf.New()
	out := make(map[string]string, len(n.keys))
	for _, key := range n.keys {
		vn := n.children[key]
		if vn.kind != scalarNode {
			return nil, d.errf(vn, "conf %q must be a scalar, got a %s", key, vn.kindName())
		}
		// Validate against the catalogue the way the engine will: unknown
		// keys fail here, at the spec, not mid-run.
		if err := catalogue.Set(key, vn.val); err != nil {
			return nil, d.errf(vn, "conf: unknown parameter %q", key)
		}
		out[key] = vn.val
	}
	return out, nil
}

func (d *dec) single(f *fields, sp *Spec) error {
	var err error
	var wn *node
	if sp.Workload, wn, err = f.reqStr("workload"); err != nil {
		return err
	}
	if err := d.checkWorkload(sp.Workload, wn); err != nil {
		return err
	}
	pol, pn, err := f.reqStr("policy")
	if err != nil {
		return err
	}
	if _, perr := exp.PolicyByName(pol); perr != nil {
		return d.errf(pn, "field \"policy\": unknown policy %q (want default, static[:N] or dynamic)", pol)
	}
	sp.Policy = pol
	chaosSpec, cn, err := f.str("chaos")
	if err != nil {
		return err
	}
	if cn != nil {
		// Single runs take the absolute-time grammar: percentage times
		// need a quiet calibration run, which only the chaos matrix has.
		if _, perr := chaos.Parse(chaosSpec); perr != nil {
			return d.errf(cn, "field \"chaos\": %v", perr)
		}
		sp.Chaos = chaosSpec
	}
	if en, ok := f.get("expect"); ok {
		if sp.Expect, err = d.expect(en); err != nil {
			return err
		}
	}
	return nil
}

func (d *dec) expect(n *node) (*ExpectSpec, error) {
	f, err := d.fields(n, "expect")
	if err != nil {
		return nil, err
	}
	e := &ExpectSpec{}
	v, vn, err := f.float("max_runtime_sec")
	if err != nil {
		return nil, err
	}
	if vn != nil {
		if v <= 0 {
			return nil, d.errf(vn, "field \"max_runtime_sec\": must be positive, got %v", v)
		}
		e.MaxRuntimeSec = v
	}
	lost, ln, err := f.integer("max_lost_executors")
	if err != nil {
		return nil, err
	}
	if ln != nil {
		if lost < 0 {
			return nil, d.errf(ln, "field \"max_lost_executors\": must be non-negative, got %d", lost)
		}
		n := int(lost)
		e.MaxLostExecutors = &n
	}
	if e.MinRecoveredGiB, _, err = f.float("min_recovered_gib"); err != nil {
		return nil, err
	}
	return e, f.finish()
}

func (d *dec) chaosMatrix(f *fields, sp *Spec) error {
	var err error
	var wn *node
	if sp.Workload, wn, err = f.reqStr("workload"); err != nil {
		return err
	}
	if err := d.checkWorkload(sp.Workload, wn); err != nil {
		return err
	}
	if err := d.policies(f, sp, true); err != nil {
		return err
	}
	schedules, sn, err := f.strings("schedules")
	if err != nil {
		return err
	}
	if len(schedules) == 0 {
		return d.errf(f.n, "%s: missing required field \"schedules\"", f.ctx)
	}
	for i, s := range schedules {
		if _, perr := chaos.ParseSchedule(s); perr != nil {
			return d.errf(schedulePos(sn, i), "schedules[%d]: %v", i, perr)
		}
	}
	sp.Schedules = schedules
	report, rn, err := f.reqStr("report")
	if err != nil {
		return err
	}
	if report != "faults" && report != "grayfail" {
		return d.errf(rn, "field \"report\": unknown chaos-matrix preset %q (want faults or grayfail)", report)
	}
	sp.Report = report
	return nil
}

// schedulePos returns the node of a sequence item for error positions.
func schedulePos(seq *node, i int) *node {
	if seq != nil && i < len(seq.seq) {
		return seq.seq[i]
	}
	return seq
}

func (d *dec) policies(f *fields, sp *Spec, required bool) error {
	policies, pn, err := f.strings("policies")
	if err != nil {
		return err
	}
	if len(policies) == 0 {
		if !required {
			return nil
		}
		return d.errf(f.n, "%s: missing required field \"policies\"", f.ctx)
	}
	for i, p := range policies {
		if _, perr := exp.PolicyByName(p); perr != nil {
			return d.errf(schedulePos(pn, i), "policies[%d]: unknown policy %q (want default, static[:N] or dynamic)", i, p)
		}
	}
	sp.Policies = policies
	return nil
}

func (d *dec) tenantMatrix(f *fields, sp *Spec) error {
	mixes, mn, err := f.sequence("mixes")
	if err != nil {
		return err
	}
	if len(mixes) == 0 {
		return d.errf(f.n, "%s: missing required field \"mixes\"", f.ctx)
	}
	_ = mn
	seen := map[string]bool{}
	for i, item := range mixes {
		mf, err := d.fields(item, fmt.Sprintf("mixes[%d]", i))
		if err != nil {
			return err
		}
		var mix MixSpec
		var nn *node
		if mix.Name, nn, err = mf.reqStr("name"); err != nil {
			return err
		}
		if seen[mix.Name] {
			return d.errf(nn, "mixes[%d]: duplicate mix name %q", i, mix.Name)
		}
		seen[mix.Name] = true
		ws, wn, err := mf.strings("workloads")
		if err != nil {
			return err
		}
		if len(ws) == 0 {
			return d.errf(item, "mixes[%d] (%s): missing required field \"workloads\"", i, mix.Name)
		}
		for j, w := range ws {
			if err := d.checkWorkload(w, schedulePos(wn, j)); err != nil {
				return err
			}
		}
		mix.Workloads = ws
		if err := mf.finish(); err != nil {
			return err
		}
		sp.Mixes = append(sp.Mixes, mix)
	}
	scheds, sn, err := f.strings("schedulers")
	if err != nil {
		return err
	}
	if len(scheds) == 0 {
		return d.errf(f.n, "%s: missing required field \"schedulers\"", f.ctx)
	}
	for i, s := range scheds {
		if _, perr := exp.SchedulerByName(s); perr != nil {
			return d.errf(schedulePos(sn, i), "schedulers[%d]: unknown scheduler %q (want fifo or fair)", i, s)
		}
	}
	sp.Schedulers = scheds
	return d.policies(f, sp, true)
}

func (d *dec) arrivalMatrix(f *fields, sp *Spec) error {
	an, ok := f.get("arrival")
	if !ok {
		return d.errf(f.n, "%s: missing required field \"arrival\"", f.ctx)
	}
	af, err := d.fields(an, "arrival")
	if err != nil {
		return err
	}
	m := &ArrivalMatrixSpec{}

	tenants, _, err := af.sequence("tenants")
	if err != nil {
		return err
	}
	if len(tenants) == 0 {
		return d.errf(an, "arrival: missing required field \"tenants\"")
	}
	seen := map[string]bool{}
	for i, item := range tenants {
		t, err := d.tenant(item, i, seen)
		if err != nil {
			return err
		}
		m.Tenants = append(m.Tenants, t)
	}

	arrivals, _, err := af.sequence("arrivals")
	if err != nil {
		return err
	}
	if len(arrivals) == 0 {
		return d.errf(an, "arrival: missing required field \"arrivals\"")
	}
	seenArr := map[string]bool{}
	for i, item := range arrivals {
		p, err := d.arrivalProc(item, i, seenArr)
		if err != nil {
			return err
		}
		m.Arrivals = append(m.Arrivals, p)
	}

	configs, _, err := af.sequence("configs")
	if err != nil {
		return err
	}
	if len(configs) == 0 {
		return d.errf(an, "arrival: missing required field \"configs\"")
	}
	seenCfg := map[string]bool{}
	for i, item := range configs {
		c, err := d.provision(item, i, seenCfg)
		if err != nil {
			return err
		}
		m.Configs = append(m.Configs, c)
	}

	capStr, capN, err := af.reqStr("capacity")
	if err != nil {
		return err
	}
	if _, _, perr := parseCapacity(capStr); perr != nil {
		return d.errf(capN, "field \"capacity\": %v", perr)
	}
	m.Capacity = capStr

	horizon, hn, err := af.duration("horizon")
	if err != nil {
		return err
	}
	if hn == nil || horizon <= 0 {
		return d.errf(an, "arrival: missing required field \"horizon\"")
	}
	m.Horizon = horizon

	maxJobs, mn, err := af.integer("max_jobs")
	if err != nil {
		return err
	}
	if mn == nil || maxJobs <= 0 {
		return d.errf(an, "arrival: missing required field \"max_jobs\"")
	}
	m.MaxJobs = int(maxJobs)
	minJobs, _, err := af.integer("min_jobs")
	if err != nil {
		return err
	}
	m.MinJobs = int(minJobs)

	sn, ok := af.get("slo")
	if !ok {
		return d.errf(an, "arrival: missing required field \"slo\"")
	}
	{
		sf, err := d.fields(sn, "slo")
		if err != nil {
			return err
		}
		v, vn, err := sf.float("factor")
		if err != nil {
			return err
		}
		if vn != nil && v <= 0 {
			return d.errf(vn, "field \"factor\": must be positive, got %v", v)
		}
		m.SLOFactor = v
		baseline, bn, err := sf.reqStr("baseline")
		if err != nil {
			return err
		}
		if !seenCfg[baseline] {
			return d.errf(bn, "field \"baseline\": config %q is not in the config list", baseline)
		}
		m.Baseline = baseline
		if err := sf.finish(); err != nil {
			return err
		}
	}
	if err := af.finish(); err != nil {
		return err
	}
	sp.Arrival = m
	return nil
}

func (d *dec) tenant(n *node, i int, seen map[string]bool) (TenantSpec, error) {
	f, err := d.fields(n, fmt.Sprintf("tenants[%d]", i))
	if err != nil {
		return TenantSpec{}, err
	}
	var t TenantSpec
	var nn *node
	if t.Name, nn, err = f.reqStr("name"); err != nil {
		return t, err
	}
	// Tenant classes must not overlap: the generator draws by class name,
	// and a duplicate would silently split one tenant's weight in two.
	if seen[t.Name] {
		return t, d.errf(nn, "tenants[%d]: duplicate tenant class %q (tenant classes must not overlap)", i, t.Name)
	}
	seen[t.Name] = true
	w, wn, err := f.float("weight")
	if err != nil {
		return t, err
	}
	if wn == nil || w <= 0 {
		return t, d.errf(pick(wn, n), "tenants[%d] (%s): field \"weight\" must be positive", i, t.Name)
	}
	t.Weight = w
	pri, _, err := f.integer("priority")
	if err != nil {
		return t, err
	}
	t.Priority = int(pri)
	blocks, bn, err := f.integer("blocks")
	if err != nil {
		return t, err
	}
	if bn == nil || blocks <= 0 {
		return t, d.errf(pick(bn, n), "tenants[%d] (%s): field \"blocks\" must be positive", i, t.Name)
	}
	t.Blocks = int(blocks)
	minBlocks, _, err := f.integer("min_blocks")
	if err != nil {
		return t, err
	}
	t.MinBlocks = int(minBlocks)
	return t, f.finish()
}

func pick(n, fallback *node) *node {
	if n != nil {
		return n
	}
	return fallback
}

func (d *dec) arrivalProc(n *node, i int, seen map[string]bool) (ArrivalProcSpec, error) {
	f, err := d.fields(n, fmt.Sprintf("arrivals[%d]", i))
	if err != nil {
		return ArrivalProcSpec{}, err
	}
	var p ArrivalProcSpec
	var nn *node
	if p.Name, nn, err = f.reqStr("name"); err != nil {
		return p, err
	}
	if seen[p.Name] {
		return p, d.errf(nn, "arrivals[%d]: duplicate arrival name %q", i, p.Name)
	}
	seen[p.Name] = true
	proc, pn, err := f.reqStr("process")
	if err != nil {
		return p, err
	}
	p.Process = proc
	switch proc {
	case "poisson":
		rate, rn, err := f.float("rate")
		if err != nil {
			return p, err
		}
		if rn == nil || rate <= 0 {
			return p, d.errf(pick(rn, n), "arrivals[%d] (%s): poisson needs a positive \"rate\"", i, p.Name)
		}
		p.Rate = rate
	case "bursty":
		if p.OnRate, _, err = f.float("on_rate"); err != nil {
			return p, err
		}
		if p.OffRate, _, err = f.float("off_rate"); err != nil {
			return p, err
		}
		var onN, offN *node
		if p.On, onN, err = f.duration("on"); err != nil {
			return p, err
		}
		if p.Off, offN, err = f.duration("off"); err != nil {
			return p, err
		}
		if p.OnRate <= 0 || onN == nil || offN == nil || p.On <= 0 || p.Off <= 0 {
			return p, d.errf(n, "arrivals[%d] (%s): bursty needs positive \"on_rate\", \"on\" and \"off\"", i, p.Name)
		}
	case "diurnal":
		var prN *node
		if p.Period, prN, err = f.duration("period"); err != nil {
			return p, err
		}
		rates, rn, err := f.strings("rates")
		if err != nil {
			return p, err
		}
		if prN == nil || p.Period <= 0 || len(rates) == 0 {
			return p, d.errf(n, "arrivals[%d] (%s): diurnal needs a positive \"period\" and a \"rates\" list", i, p.Name)
		}
		for j, r := range rates {
			v, perr := strconv.ParseFloat(r, 64)
			if perr != nil || v < 0 {
				return p, d.errf(schedulePos(rn, j), "arrivals[%d] (%s): rates[%d]: %q is not a non-negative number", i, p.Name, j, r)
			}
			p.Rates = append(p.Rates, v)
		}
	default:
		return p, d.errf(pn, "arrivals[%d]: unknown process %q (want poisson, bursty or diurnal)", i, proc)
	}
	return p, f.finish()
}

func (d *dec) provision(n *node, i int, seen map[string]bool) (ProvisionSpec, error) {
	f, err := d.fields(n, fmt.Sprintf("configs[%d]", i))
	if err != nil {
		return ProvisionSpec{}, err
	}
	var c ProvisionSpec
	var nn *node
	if c.Name, nn, err = f.reqStr("name"); err != nil {
		return c, err
	}
	if seen[c.Name] {
		return c, d.errf(nn, "configs[%d]: duplicate config name %q", i, c.Name)
	}
	seen[c.Name] = true
	pol, pn, err := f.reqStr("policy")
	if err != nil {
		return c, err
	}
	if pol != "static" && pol != "reactive" && pol != "adaptive" {
		return c, d.errf(pn, "configs[%d]: unknown autoscale policy %q (want static, reactive or adaptive)", i, pol)
	}
	c.Policy = pol
	initial, in, err := f.reqStr("initial")
	if err != nil {
		return c, err
	}
	if initial != "small" && initial != "capacity" {
		v, perr := strconv.Atoi(initial)
		if perr != nil || v <= 0 {
			return c, d.errf(in, "configs[%d] (%s): field \"initial\": want small, capacity or a positive integer, got %q", i, c.Name, initial)
		}
	}
	c.Initial = initial
	if pol == "adaptive" {
		if c.Alpha, _, err = f.float("alpha"); err != nil {
			return c, err
		}
		if c.DrainTarget, _, err = f.duration("drain_target"); err != nil {
			return c, err
		}
		if c.Headroom, _, err = f.float("headroom"); err != nil {
			return c, err
		}
		if c.MinSamplePeriod, _, err = f.duration("min_sample_period"); err != nil {
			return c, err
		}
	}
	return c, f.finish()
}

func (d *dec) checkWorkload(name string, n *node) error {
	if _, err := workloads.ByName(name, workloads.Paper()); err != nil {
		return d.errf(n, "unknown workload %q", name)
	}
	return nil
}

// parseCapacity parses the fleet size: "8" or "2x" (times cluster nodes).
func parseCapacity(s string) (n int, perNode bool, err error) {
	if strings.HasSuffix(s, "x") {
		v, err := strconv.Atoi(s[:len(s)-1])
		if err != nil || v <= 0 {
			return 0, false, fmt.Errorf("want a positive integer or \"Nx\" (times cluster nodes), got %q", s)
		}
		return v, true, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil || v <= 0 {
		return 0, false, fmt.Errorf("want a positive integer or \"Nx\" (times cluster nodes), got %q", s)
	}
	return v, false, nil
}

// sortedConfKeys returns the conf override keys in stable order.
func sortedConfKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
