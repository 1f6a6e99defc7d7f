package mcs

import (
	"fmt"
	"sync"
)

// sink is the tests' Ingestor: a participants×slots grid that keeps the
// first report per cell and rejects duplicates and out-of-range reports,
// counting both.
type sink struct {
	mu                  sync.Mutex
	participants, slots int
	cells               map[[2]int]Report
	rejected            int
}

func newSink(participants, slots int) *sink {
	return &sink{participants: participants, slots: slots, cells: make(map[[2]int]Report)}
}

func (s *sink) Ingest(r Report) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Participant < 0 || r.Participant >= s.participants || r.Slot < 0 || r.Slot >= s.slots {
		s.rejected++
		return fmt.Errorf("participant %d slot %d outside %dx%d", r.Participant, r.Slot, s.participants, s.slots)
	}
	key := [2]int{r.Participant, r.Slot}
	if _, ok := s.cells[key]; ok {
		s.rejected++
		return fmt.Errorf("%w: participant %d slot %d", ErrDuplicateReport, r.Participant, r.Slot)
	}
	s.cells[key] = r
	return nil
}

// counts reports how many reports were accepted and rejected.
func (s *sink) counts() (accepted, rejected int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cells), s.rejected
}

// at returns the accepted report in a cell.
func (s *sink) at(participant, slot int) Report {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cells[[2]int{participant, slot}]
}
