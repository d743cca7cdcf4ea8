package dse

import (
	"encoding/json"
	"fmt"

	"chipletnet/internal/jsonl"
	"chipletnet/internal/verify"
)

// verdictFile names the store directory's pre-flight verdict file.
const verdictFile = "verdicts.jsonl"

// verdictKey identifies one pre-flight verdict: the routing structure
// (chipletnet.RoutingStructureKey) and the analysis bounds it was
// certified under. The certifier's verify.Version is checked on load, so
// it is not part of the in-memory key.
type verdictKey struct {
	Structure            string
	MaxDests, MaxSources int
}

// verdict is the outcome of certifying one routing structure: the
// certificate's content address and, when the pre-flight refused the
// structure, the verifier's first witness.
type verdict struct {
	Cert   string
	Reason string `json:",omitempty"` // "" when the structure was certified
}

// verdictLine is one line of the verdict file.
type verdictLine struct {
	Version int // verify.Version of the certifier that took the verdict
	verdictKey
	verdict
}

// loadVerdicts reads the verdict file at path into s (see jsonl.Load). A
// line from another certifier version is skipped, not used: the verdict
// it holds may not be this certifier's. A line that does not decode, or
// lacks a structure or certificate, is quarantined.
func (s *Store) loadVerdicts(path string) error {
	q, err := jsonl.Load(path, func(line []byte) error {
		var vl verdictLine
		if err := json.Unmarshal(line, &vl); err != nil {
			return err
		}
		if vl.Structure == "" || vl.Cert == "" {
			return fmt.Errorf("verdict line without structure or certificate")
		}
		if vl.Version == verify.Version {
			s.verdicts[vl.verdictKey] = vl.verdict
		}
		return nil
	})
	s.quarantined += q
	return err
}

// lookupVerdict returns the stored verdict for k.
func (s *Store) lookupVerdict(k verdictKey) (verdict, bool) {
	s.verdictMu.Lock()
	defer s.verdictMu.Unlock()
	v, ok := s.verdicts[k]
	return v, ok
}

// putVerdicts stores the verdicts vs[i] for the distinct keys ks[i] the
// store does not hold yet and, for an on-disk store, appends them to the
// verdict file with one write and one fsync. Nothing new writes nothing.
func (s *Store) putVerdicts(ks []verdictKey, vs []verdict) error {
	s.verdictMu.Lock()
	defer s.verdictMu.Unlock()
	var lines [][]byte
	var add []int
	for i, k := range ks {
		if _, ok := s.verdicts[k]; ok {
			continue // another plan on this store took it meanwhile
		}
		line, err := json.Marshal(verdictLine{Version: verify.Version, verdictKey: k, verdict: vs[i]})
		if err != nil {
			return err
		}
		lines = append(lines, line)
		add = append(add, i)
	}
	if len(lines) == 0 {
		return nil
	}
	if s.verdictLog != nil {
		if err := s.verdictLog.AppendAll(lines); err != nil {
			return err
		}
	}
	for _, i := range add {
		s.verdicts[ks[i]] = vs[i]
	}
	return nil
}
