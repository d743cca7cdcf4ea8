package packet

// Table interns packets during checkpointing so each is serialized
// exactly once and referenced by index everywhere else.
type Table struct {
	byPtr map[*Packet]int
	list  []Packet
}

// NewTable returns an empty table.
func NewTable() *Table {
	return &Table{byPtr: make(map[*Packet]int)}
}

// Ref interns p and returns its table index; -1 for nil.
func (t *Table) Ref(p *Packet) int {
	if p == nil {
		return -1
	}
	if i, ok := t.byPtr[p]; ok {
		return i
	}
	i := len(t.list)
	t.byPtr[p] = i
	t.list = append(t.list, *p)
	return i
}

// List returns copies of the interned packets in reference order.
func (t *Table) List() []Packet { return t.list }

// Materialize rebuilds live packets from serialized copies, preserving
// table indices. Restore paths share the returned slice so a packet
// referenced from several places is one object again.
func Materialize(states []Packet) []*Packet {
	pkts := make([]*Packet, len(states))
	for i := range states {
		p := states[i]
		pkts[i] = &p
	}
	return pkts
}
