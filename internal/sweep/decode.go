package sweep

import (
	"encoding/json"
	"time"

	"github.com/maps-sim/mapsim/internal/jsonread"
	"github.com/maps-sim/mapsim/internal/sim"
)

// resultJSON is Result without its methods: what encoding/json
// decodes into when the fast path declines an input.
type resultJSON Result

// UnmarshalJSON decodes a sweep Result. The canonical encoding
// decoded into a zero Result is read in one reflection-free pass, each
// point's sim.Result included (sim.ReadResult). Every other input, and
// any non-zero target, is decoded by encoding/json, so values and
// errors are always encoding/json's.
func (res *Result) UnmarshalJSON(data []byte) error {
	if res.Points == nil && res.Total == 0 && res.Done == 0 && res.Deduped == 0 &&
		res.Geomeans == nil && res.Wall == 0 {
		r := jsonread.New(data)
		resultFields.Read(r, res)
		if r.End() {
			return nil
		}
		*res = Result{}
	}
	return json.Unmarshal(data, (*resultJSON)(res))
}

var resultFields = jsonread.Fields[Result]{
	{Name: "points", Read: func(r *jsonread.Reader, v *Result) {
		v.Points = []PointResult{} // encoding/json's value for []
		for more := r.ArrayStart(); more; more = r.ArrayNext() {
			v.Points = append(v.Points, PointResult{})
			pointResultFields.Read(r, &v.Points[len(v.Points)-1])
		}
	}},
	{Name: "total", Read: func(r *jsonread.Reader, v *Result) { v.Total = r.Int() }},
	{Name: "done", Read: func(r *jsonread.Reader, v *Result) { v.Done = r.Int() }},
	{Name: "deduped", Read: func(r *jsonread.Reader, v *Result) { v.Deduped = r.Int() }},
	{Name: "geomeans", Read: func(r *jsonread.Reader, v *Result) {
		v.Geomeans = []AxisGeomean{}
		for more := r.ArrayStart(); more; more = r.ArrayNext() {
			v.Geomeans = append(v.Geomeans, AxisGeomean{})
			axisGeomeanFields.Read(r, &v.Geomeans[len(v.Geomeans)-1])
		}
	}},
	{Name: "wall_ns", Read: func(r *jsonread.Reader, v *Result) { v.Wall = time.Duration(r.Int64()) }},
}

// pointResultFields lists the embedded Point's members first, as
// encoding/json writes them.
var pointResultFields = jsonread.Fields[PointResult]{
	{Name: "index", Read: func(r *jsonread.Reader, v *PointResult) { v.Index = r.Int() }},
	{Name: "benchmark", Read: func(r *jsonread.Reader, v *PointResult) { v.Benchmark = r.String() }},
	{Name: "secure", Read: func(r *jsonread.Reader, v *PointResult) { v.Secure = r.Bool() }},
	{Name: "llc_bytes", Read: func(r *jsonread.Reader, v *PointResult) { v.LLCBytes = r.Int() }},
	{Name: "meta_bytes", Read: func(r *jsonread.Reader, v *PointResult) { v.MetaBytes = r.Int() }},
	{Name: "content", Read: func(r *jsonread.Reader, v *PointResult) { v.Content = r.String() }},
	{Name: "policy", Read: func(r *jsonread.Reader, v *PointResult) { v.Policy = r.String() }},
	{Name: "partition", Read: func(r *jsonread.Reader, v *PointResult) { v.Partition = r.String() }},
	{Name: "partial_writes", Read: func(r *jsonread.Reader, v *PointResult) { v.PartialWrites = r.Bool() }},
	{Name: "result", Read: func(r *jsonread.Reader, v *PointResult) { v.Result = sim.ReadResult(r) }},
	{Name: "cached", Read: func(r *jsonread.Reader, v *PointResult) { v.Cached = r.Bool() }},
	{Name: "worker", Read: func(r *jsonread.Reader, v *PointResult) { v.Worker = r.String() }},
}

var axisGeomeanFields = jsonread.Fields[AxisGeomean]{
	{Name: "axis", Read: func(r *jsonread.Reader, v *AxisGeomean) { v.Axis = r.String() }},
	{Name: "label", Read: func(r *jsonread.Reader, v *AxisGeomean) { v.Label = r.String() }},
	{Name: "points", Read: func(r *jsonread.Reader, v *AxisGeomean) { v.Points = r.Int() }},
	{Name: "llc_mpki", Read: func(r *jsonread.Reader, v *AxisGeomean) { v.LLCMPKI = r.Float64() }},
	{Name: "meta_mpki", Read: func(r *jsonread.Reader, v *AxisGeomean) { v.MetaMPKI = r.Float64() }},
	{Name: "ipc", Read: func(r *jsonread.Reader, v *AxisGeomean) { v.IPC = r.Float64() }},
	{Name: "ed2", Read: func(r *jsonread.Reader, v *AxisGeomean) { v.ED2 = r.Float64() }},
}
