package oracle

import (
	"fmt"
	"math/rand"

	"streamcount/internal/graph"
)

// Direct answers queries straight from an in-memory graph. It realizes the
// sublinear-time query-access setting the paper's source algorithms
// ([FGP20], [ERS20]) were designed for, and doubles as the reference
// implementation the streaming runners are tested against.
type Direct struct {
	g       *graph.Graph
	edges   []graph.Edge
	rng     *rand.Rand
	model   Model
	rounds  int64
	queries int64
}

// NewDirect returns a Direct runner over g. The model selects whether f3 is
// indexed (Augmented) or sampling (Relaxed); the Direct runner answers both
// exactly, which is permitted by the relaxed model's guarantees.
func NewDirect(g *graph.Graph, model Model, rng *rand.Rand) *Direct {
	return &Direct{g: g, edges: g.Edges(), rng: rng, model: model}
}

// Round implements Runner.
func (d *Direct) Round(queries []Query) ([]Answer, error) {
	d.rounds++
	d.queries += int64(len(queries))
	answers := make([]Answer, len(queries))
	for i, q := range queries {
		switch q.Type {
		case CountEdges:
			answers[i] = Answer{OK: true, Count: d.g.M()}
		case RandomEdge:
			if len(d.edges) == 0 {
				answers[i] = Answer{OK: false}
				continue
			}
			answers[i] = Answer{OK: true, Edge: d.edges[d.rng.Intn(len(d.edges))]}
		case Degree:
			if err := d.checkVertex(q.U); err != nil {
				return nil, err
			}
			answers[i] = Answer{OK: true, Count: d.g.Degree(q.U)}
		case Neighbor:
			if d.model != Augmented {
				return nil, fmt.Errorf("oracle: Neighbor query in %v model", d.model)
			}
			if err := d.checkVertex(q.U); err != nil {
				return nil, err
			}
			if q.I < 1 || q.I > d.g.Degree(q.U) {
				answers[i] = Answer{OK: false}
				continue
			}
			answers[i] = Answer{OK: true, Count: d.g.Neighbor(q.U, q.I-1)}
		case RandomNeighbor:
			if d.model != Relaxed {
				return nil, fmt.Errorf("oracle: RandomNeighbor query in %v model", d.model)
			}
			if err := d.checkVertex(q.U); err != nil {
				return nil, err
			}
			deg := d.g.Degree(q.U)
			if deg == 0 {
				answers[i] = Answer{OK: false}
				continue
			}
			answers[i] = Answer{OK: true, Count: d.g.Neighbor(q.U, d.rng.Int63n(deg))}
		case Adjacent:
			if err := d.checkVertex(q.U); err != nil {
				return nil, err
			}
			if err := d.checkVertex(q.V); err != nil {
				return nil, err
			}
			answers[i] = Answer{OK: true, Yes: d.g.HasEdge(q.U, q.V)}
		default:
			return nil, fmt.Errorf("oracle: unknown query type %d", q.Type)
		}
	}
	return answers, nil
}

func (d *Direct) checkVertex(v int64) error {
	if v < 0 || v >= d.g.N() {
		return fmt.Errorf("oracle: vertex %d out of range [0,%d)", v, d.g.N())
	}
	return nil
}

// Model implements Runner.
func (d *Direct) Model() Model { return d.model }

// Rounds implements Runner.
func (d *Direct) Rounds() int64 { return d.rounds }

// Queries implements Runner.
func (d *Direct) Queries() int64 { return d.queries }

// SpaceWords implements Runner. The direct oracle stores no emulation state;
// per the paper's convention the input graph itself is not charged.
func (d *Direct) SpaceWords() int64 { return 0 }
