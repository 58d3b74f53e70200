//go:build cksan

package chaos

import "vpp/internal/hw"

// sanCheckArm rejects arming a chaos plan on a machine whose cluster is
// already running: hook installation writes shard-owned fields (crash
// events, fault hooks on kernels and devices of every shard), which is
// only safe while all shards are quiescent at construction time
// (DESIGN.md §11).
func sanCheckArm(m *hw.Machine) {
	if m != nil && m.Cluster.Running() {
		panic("cksan: chaos plan armed while the cluster is running: fault hooks must be installed before Run")
	}
}
