package device

import "time"

// Hardware constants for the two clusters in Figure 6 of the paper.
//
// The paper labels its fabrics "100 GB/s" and "56 GB/s"; the physical
// parts (EDR and FDR Infiniband) are 100 Gb/s and 56 Gb/s, so we use the
// byte-rate equivalents. Only the ratios between link classes matter for
// strategy selection, and those are preserved.
const (
	p100GFLOPS = 9300.0 // Tesla P100 peak fp32
	p100MemBW  = 732.0  // GB/s HBM2
	k80GFLOPS  = 2800.0 // one logical K80 GPU (half board) peak fp32
	k80MemBW   = 240.0  // GB/s GDDR5 per logical GPU

	nvlinkBW   = 18.0 // GB/s per direction (P100 NVLink 1.0)
	pcieBW     = 11.0 // GB/s effective PCI-e 3.0 x16
	pcieShared = 7.0  // GB/s effective when the switch is shared (K80 cluster)
	edrIBBW    = 12.0 // GB/s (100 Gb/s EDR Infiniband)
	fdrIBBW    = 6.8  // GB/s (56 Gb/s FDR Infiniband)

	nvlinkLat = 2 * time.Microsecond
	pcieLat   = 5 * time.Microsecond
	ibLat     = 15 * time.Microsecond
)

// ClusterNodeDevices is the device count of one node of either built-in
// cluster (NewP100Cluster, NewK80Cluster): its GPUs and a host CPU.
const ClusterNodeDevices = nodeGPUs + 1

// nodeGPUs is the GPU count of one node of either built-in cluster.
const nodeGPUs = 4

// NewP100Cluster reproduces the first cluster of Figure 6: nodes compute
// nodes, each with four P100 GPUs pairwise connected by NVLink on the
// same node, a host CPU, and 100 Gb/s EDR Infiniband between nodes.
func NewP100Cluster(nodes int) *Topology {
	t := NewTopology("p100-cluster")
	cpus := make([]int, nodes)
	for n := 0; n < nodes; n++ {
		gpus := make([]int, nodeGPUs)
		for g := 0; g < nodeGPUs; g++ {
			gpus[g] = t.AddDevice(Device{
				Kind: GPU, Name: deviceName("p100", n, g), Node: n,
				Model: "P100", PeakGFLOPS: p100GFLOPS, MemBWGBs: p100MemBW, MemGB: 16,
			})
		}
		cpus[n] = t.AddDevice(Device{
			Kind: CPU, Name: deviceName("cpu", n, 0), Node: n,
			Model: "E5-2600", PeakGFLOPS: 600, MemBWGBs: 75,
		})
		// NVLink mesh between the four GPUs of a node.
		for i := 0; i < nodeGPUs; i++ {
			for j := i + 1; j < nodeGPUs; j++ {
				t.AddLink(NVLink, gpus[i], gpus[j], nvlinkBW, nvlinkLat)
			}
		}
		// Each GPU also hangs off the host CPU via PCI-e.
		for i := 0; i < nodeGPUs; i++ {
			t.AddLink(PCIe, gpus[i], cpus[n], pcieBW, pcieLat)
		}
	}
	// EDR Infiniband between node CPUs (NIC attached to the host).
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			t.AddLink(Infiniband, cpus[a], cpus[b], edrIBBW, ibLat)
		}
	}
	return t
}

// NewK80Cluster reproduces the second cluster of Figure 6: nodes compute
// nodes with four K80 GPUs each. Adjacent GPU pairs (0,1) and (2,3)
// share a dedicated PCI-e switch; all four reach the host CPU through a
// shared (slower) PCI-e switch; nodes connect over 56 Gb/s Infiniband.
// The asymmetry between adjacent and non-adjacent GPUs is what drives
// the placement observation in Section 8.5.
func NewK80Cluster(nodes int) *Topology {
	t := NewTopology("k80-cluster")
	cpus := make([]int, nodes)
	for n := 0; n < nodes; n++ {
		gpus := make([]int, nodeGPUs)
		for g := 0; g < nodeGPUs; g++ {
			gpus[g] = t.AddDevice(Device{
				Kind: GPU, Name: deviceName("k80", n, g), Node: n,
				Model: "K80", PeakGFLOPS: k80GFLOPS, MemBWGBs: k80MemBW, MemGB: 12,
			})
		}
		cpus[n] = t.AddDevice(Device{
			Kind: CPU, Name: deviceName("cpu", n, 0), Node: n,
			Model: "E5-2680", PeakGFLOPS: 600, MemBWGBs: 75,
		})
		// Dedicated switch between adjacent GPU pairs.
		t.AddLink(PCIe, gpus[0], gpus[1], pcieBW, pcieLat)
		t.AddLink(PCIe, gpus[2], gpus[3], pcieBW, pcieLat)
		// Shared switch to the host: slower effective bandwidth.
		for i := 0; i < nodeGPUs; i++ {
			t.AddLink(PCIe, gpus[i], cpus[n], pcieShared, pcieLat)
		}
	}
	for a := 0; a < nodes; a++ {
		for b := a + 1; b < nodes; b++ {
			t.AddLink(Infiniband, cpus[a], cpus[b], fdrIBBW, ibLat)
		}
	}
	return t
}

// NewSingleNode builds a single compute node with the given number of
// GPUs of the given model, NVLink-connected, for small experiments.
func NewSingleNode(gpus int, model string) *Topology {
	t := NewTopology("single-node")
	gflops, membw, memGB := p100GFLOPS, p100MemBW, 16.0
	if model == "K80" {
		gflops, membw, memGB = k80GFLOPS, k80MemBW, 12.0
	}
	ids := make([]int, gpus)
	for g := 0; g < gpus; g++ {
		ids[g] = t.AddDevice(Device{
			Kind: GPU, Name: deviceName(model, 0, g), Node: 0,
			Model: model, PeakGFLOPS: gflops, MemBWGBs: membw, MemGB: memGB,
		})
	}
	cpu := t.AddDevice(Device{
		Kind: CPU, Name: "cpu0", Node: 0,
		Model: "host", PeakGFLOPS: 600, MemBWGBs: 75,
	})
	for i := 0; i < gpus; i++ {
		for j := i + 1; j < gpus; j++ {
			t.AddLink(NVLink, ids[i], ids[j], nvlinkBW, nvlinkLat)
		}
		t.AddLink(PCIe, ids[i], cpu, pcieBW, pcieLat)
	}
	return t
}

// ClusterFor returns the paper's evaluation topology containing at least
// numGPUs GPUs of the given model ("P100" or "K80"), sized like the
// experiments in Figure 7 (powers of two, 4 GPUs per node beyond one
// node).
func ClusterFor(model string, numGPUs int) *Topology {
	nodes := (numGPUs + 3) / 4
	if nodes < 1 {
		nodes = 1
	}
	if numGPUs <= 4 {
		return NewSingleNode(numGPUs, model)
	}
	if model == "K80" {
		return NewK80Cluster(nodes)
	}
	return NewP100Cluster(nodes)
}

func deviceName(prefix string, node, idx int) string {
	const digits = "0123456789"
	buf := []byte(prefix + "-n")
	buf = appendInt(buf, node)
	buf = append(buf, "-g"...)
	buf = appendInt(buf, idx)
	_ = digits
	return string(buf)
}

func appendInt(b []byte, v int) []byte {
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}
