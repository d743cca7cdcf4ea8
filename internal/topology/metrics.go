package topology

// bfs fills dist (len == node count, -1 = unreachable) with hop distances
// from src over the node graph.
func (s *System) bfs(src int, dist []int) {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, p := range s.Nodes[v].Ports {
			if p.Dir == DirLocal {
				continue
			}
			if dist[p.To] < 0 {
				dist[p.To] = dist[v] + 1
				queue = append(queue, p.To)
			}
		}
	}
}

// Diameter returns the node-level network diameter (maximum over all pairs
// of the shortest hop distance) and whether the network is connected.
func (s *System) Diameter() (d int, connected bool) {
	dist := make([]int, len(s.Nodes))
	connected = true
	for src := range s.Nodes {
		s.bfs(src, dist)
		for _, dd := range dist {
			if dd < 0 {
				connected = false
				continue
			}
			if dd > d {
				d = dd
			}
		}
	}
	return d, connected
}

// ChipletDiameter returns the chiplet-level diameter: the maximum over all
// chiplet pairs of the minimum number of chiplet-to-chiplet hops.
func (s *System) ChipletDiameter() int {
	m := s.NumChiplets()
	adj := make([][]int, m)
	seen := make([]map[int]bool, m)
	for i := range seen {
		seen[i] = make(map[int]bool)
	}
	for id := range s.Nodes {
		c := s.Nodes[id].Chiplet
		for _, p := range s.Nodes[id].Ports {
			if !p.OffChip {
				continue
			}
			pc := s.Nodes[p.To].Chiplet
			if pc != c && !seen[c][pc] {
				seen[c][pc] = true
				adj[c] = append(adj[c], pc)
			}
		}
	}
	diam := 0
	dist := make([]int, m)
	for src := 0; src < m; src++ {
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		q := []int{src}
		for len(q) > 0 {
			v := q[0]
			q = q[1:]
			for _, w := range adj[v] {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					q = append(q, w)
				}
			}
		}
		for _, dd := range dist {
			if dd > diam {
				diam = dd
			}
		}
	}
	return diam
}

// OffChipLinkCount returns the number of unidirectional chiplet-to-chiplet
// links in the system.
func (s *System) OffChipLinkCount() int {
	n := 0
	for _, l := range s.Fabric.Links {
		if l.OffChip {
			n++
		}
	}
	return n
}
