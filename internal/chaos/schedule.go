package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"siterecovery/internal/proto"
)

// ScheduleVersion is the serialization format version; bump on breaking
// changes to Schedule or Step so stale reproducer files fail loudly.
const ScheduleVersion = 1

// StepKind enumerates the fault-plan step types.
type StepKind string

// Step kinds.
const (
	// StepTxn runs one user transaction (reads then writes) at Site.
	StepTxn StepKind = "txn"
	// StepCrash fail-stops Site and has the lowest surviving operational
	// site claim it nominally down (type-2 control transaction).
	StepCrash StepKind = "crash"
	// StepRecover runs the §3.4 recovery procedure at Site.
	StepRecover StepKind = "recover"
	// StepPartition splits the network into Groups.
	StepPartition StepKind = "partition"
	// StepHeal removes all partitions.
	StepHeal StepKind = "heal"
	// StepLoss sets the network drop probability to Loss (a burst starts
	// or, with Loss 0, ends).
	StepLoss StepKind = "loss"
	// StepStall wedges Site's copier path (data recovery stops making
	// progress while the site stays operational). The process-level runner
	// maps this to wedging Site's network links mid-stream instead (bytes
	// stop flowing but connections stay open), the closest real-socket
	// analogue.
	StepStall StepKind = "stall"
	// StepResume unwedges Site's copier path (or, process-level, its links).
	StepResume StepKind = "resume"

	// StepKill SIGKILLs Site's process: unlike StepCrash, nothing at the
	// site gets to react — buffered trace exports are truncated and all
	// volatile state is lost. Only the process-level runner applies it; the
	// netsim runner skips it (no process to kill).
	StepKill StepKind = "kill"
	// StepSlow adds DelayMS of per-chunk forwarding delay on every network
	// link touching Site (a slow link rather than a dead one). DelayMS 0
	// restores full speed. Process-level runner only.
	StepSlow StepKind = "slow"
)

// Step is one serializable fault-plan action. Only the fields relevant to
// the Kind are set.
type Step struct {
	Kind    StepKind         `json:"kind"`
	Site    proto.SiteID     `json:"site,omitempty"`
	Groups  [][]proto.SiteID `json:"groups,omitempty"`
	Loss    float64          `json:"loss,omitempty"`
	DelayMS int64            `json:"delay_ms,omitempty"`
	Reads   []proto.Item     `json:"reads,omitempty"`
	Writes  []proto.Item     `json:"writes,omitempty"`
	Values  []proto.Value    `json:"values,omitempty"`
}

// String renders a step compactly for logs and shrink traces.
func (s Step) String() string {
	switch s.Kind {
	case StepTxn:
		return fmt.Sprintf("txn@%v r%v w%v", s.Site, s.Reads, s.Writes)
	case StepCrash, StepRecover, StepStall, StepResume, StepKill:
		return fmt.Sprintf("%s %v", s.Kind, s.Site)
	case StepPartition:
		return fmt.Sprintf("partition %v", s.Groups)
	case StepLoss:
		return fmt.Sprintf("loss %.2f", s.Loss)
	case StepSlow:
		return fmt.Sprintf("slow %v %dms", s.Site, s.DelayMS)
	default:
		return string(s.Kind)
	}
}

// Schedule is a self-contained, replayable fault plan: the cluster shape it
// ran against plus the step sequence. Running the same schedule twice
// produces byte-identical observability traces.
type Schedule struct {
	Version  int    `json:"version"`
	Seed     int64  `json:"seed"`
	Sites    int    `json:"sites"`
	Items    int    `json:"items"`
	Degree   int    `json:"degree"`
	Identify string `json:"identify"`
	Steps    []Step `json:"steps"`
}

// WithSteps returns a copy of the schedule carrying the given steps —
// shrinking produces candidate schedules this way, keeping the header.
func (s Schedule) WithSteps(steps []Step) Schedule {
	s.Steps = append([]Step(nil), steps...)
	return s
}

// Encode writes the schedule as indented JSON.
func (s Schedule) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile writes the schedule to path as JSON.
func (s Schedule) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// DecodeSchedule reads one schedule from r, rejecting unknown versions, an
// empty cluster, and a txn step without exactly one value per write.
func DecodeSchedule(r io.Reader) (Schedule, error) {
	var s Schedule
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return Schedule{}, fmt.Errorf("decode schedule: %w", err)
	}
	if s.Version != ScheduleVersion {
		return Schedule{}, fmt.Errorf("schedule version %d, this build reads %d", s.Version, ScheduleVersion)
	}
	if s.Sites <= 0 || s.Items <= 0 || s.Degree <= 0 {
		return Schedule{}, fmt.Errorf("schedule header invalid: sites=%d items=%d degree=%d", s.Sites, s.Items, s.Degree)
	}
	for i, st := range s.Steps {
		if st.Kind == StepTxn && len(st.Values) != len(st.Writes) {
			return Schedule{}, fmt.Errorf("schedule step %d: txn has %d writes but %d values", i, len(st.Writes), len(st.Values))
		}
	}
	return s, nil
}

// ReadScheduleFile reads a schedule written by WriteFile.
func ReadScheduleFile(path string) (Schedule, error) {
	f, err := os.Open(path)
	if err != nil {
		return Schedule{}, err
	}
	defer f.Close()
	return DecodeSchedule(f)
}
