package device

import (
	"testing"
	"time"
)

func TestKindAndLinkClassString(t *testing.T) {
	if GPU.String() != "GPU" || CPU.String() != "CPU" {
		t.Fatal("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown Kind.String mismatch")
	}
	for c, want := range map[LinkClass]string{NVLink: "NVLink", PCIe: "PCI-e", Infiniband: "Infiniband", Loopback: "Loopback"} {
		if c.String() != want {
			t.Fatalf("LinkClass %d = %q, want %q", c, c.String(), want)
		}
	}
	if LinkClass(9).String() != "LinkClass(9)" {
		t.Fatal("unknown LinkClass.String mismatch")
	}
}

func TestAddDeviceAndLink(t *testing.T) {
	topo := NewTopology("test")
	a := topo.AddDevice(Device{Kind: GPU, Name: "g0", Model: "P100", PeakGFLOPS: 9300})
	b := topo.AddDevice(Device{Kind: GPU, Name: "g1", Model: "P100", PeakGFLOPS: 9300})
	if a != 0 || b != 1 {
		t.Fatalf("device IDs %d, %d", a, b)
	}
	id := topo.AddLink(NVLink, a, b, 18, 2*time.Microsecond)
	if id != 0 {
		t.Fatalf("link ID %d", id)
	}
	if topo.NumDevices() != 2 {
		t.Fatalf("NumDevices = %d", topo.NumDevices())
	}
	if got := topo.Device(1).Name; got != "g1" {
		t.Fatalf("Device(1).Name = %q", got)
	}
	l := topo.Links[0]
	if l.Name() != "NVLink(0<->1)" {
		t.Fatalf("link name %q", l.Name())
	}
}

func TestAddLinkPanicsOnUnknownDevice(t *testing.T) {
	topo := NewTopology("test")
	topo.AddDevice(Device{Kind: GPU})
	defer func() {
		if recover() == nil {
			t.Fatal("AddLink to unknown device did not panic")
		}
	}()
	topo.AddLink(NVLink, 0, 5, 18, 0)
}

func TestRouteDirectAndLoopback(t *testing.T) {
	topo := NewTopology("test")
	a := topo.AddDevice(Device{Kind: GPU})
	b := topo.AddDevice(Device{Kind: GPU})
	topo.AddLink(NVLink, a, b, 18, 2*time.Microsecond)

	p := topo.Route(a, b)
	if len(p.Links) != 1 || p.BWGBs != 18 {
		t.Fatalf("Route(a,b) = %+v", p)
	}
	self := topo.Route(a, a)
	if self.BottleneckLink != -1 || len(self.Links) != 0 {
		t.Fatalf("loopback path = %+v", self)
	}
	if self.TransferTime(1<<30) != 0 {
		// loopback bandwidth is effectively infinite and latency zero
		if self.TransferTime(1<<30) > time.Nanosecond {
			t.Fatalf("loopback transfer time = %v", self.TransferTime(1<<30))
		}
	}
}

func TestRoutePrefersHigherBandwidth(t *testing.T) {
	// a --(slow direct)-- b and a --fast-- c --fast-- b. The router
	// maximizes bottleneck bandwidth, so it should go through c.
	topo := NewTopology("test")
	a := topo.AddDevice(Device{Kind: GPU})
	b := topo.AddDevice(Device{Kind: GPU})
	c := topo.AddDevice(Device{Kind: CPU})
	topo.AddLink(PCIe, a, b, 2, time.Microsecond)
	topo.AddLink(NVLink, a, c, 20, time.Microsecond)
	topo.AddLink(NVLink, c, b, 20, time.Microsecond)

	p := topo.Route(a, b)
	if p.BWGBs != 20 || len(p.Links) != 2 {
		t.Fatalf("Route = %+v, want 2-hop 20 GB/s", p)
	}
	if p.Latency != 2*time.Microsecond {
		t.Fatalf("Latency = %v", p.Latency)
	}
}

func TestTransferTime(t *testing.T) {
	p := Path{BWGBs: 10, Latency: time.Microsecond}
	// 10 GB at 10 GB/s = 1 s + 1 µs.
	got := p.TransferTime(10 * 1e9)
	want := time.Second + time.Microsecond
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
	zero := Path{BWGBs: 0, Latency: time.Millisecond}
	if zero.TransferTime(123) != time.Millisecond {
		t.Fatal("zero-bandwidth path should cost its latency")
	}
}

func TestP100ClusterShape(t *testing.T) {
	topo := NewP100Cluster(4)
	if got := len(topo.GPUs()); got != 16 {
		t.Fatalf("P100 cluster GPUs = %d, want 16", got)
	}
	if topo.NumDevices() != 20 { // 16 GPUs + 4 CPUs
		t.Fatalf("NumDevices = %d, want 20", topo.NumDevices())
	}
	if topo.NumDevices() != 4*ClusterNodeDevices {
		t.Fatalf("NumDevices = %d, want %d", topo.NumDevices(), 4*ClusterNodeDevices)
	}
	if err := topo.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Same-node GPUs route over NVLink directly.
	gpus := topo.GPUs()
	p := topo.Route(gpus[0], gpus[1])
	if len(p.Links) != 1 || topo.Links[p.Links[0]].Class != NVLink {
		t.Fatalf("same-node route = %+v", p)
	}
	// Cross-node routes traverse Infiniband and are slower than NVLink.
	cross := topo.Route(gpus[0], gpus[4])
	if cross.BWGBs >= nvlinkBW {
		t.Fatalf("cross-node bandwidth %g >= NVLink %g", cross.BWGBs, nvlinkBW)
	}
	hasIB := false
	for _, lid := range cross.Links {
		if topo.Links[lid].Class == Infiniband {
			hasIB = true
		}
	}
	if !hasIB {
		t.Fatalf("cross-node route has no Infiniband hop: %+v", cross)
	}
}

func TestK80ClusterAsymmetry(t *testing.T) {
	topo := NewK80Cluster(2)
	if got := len(topo.GPUs()); got != 8 {
		t.Fatalf("K80 cluster GPUs = %d, want 8", got)
	}
	if topo.NumDevices() != 2*ClusterNodeDevices {
		t.Fatalf("NumDevices = %d, want %d", topo.NumDevices(), 2*ClusterNodeDevices)
	}
	gpus := topo.GPUs()
	adj := topo.Route(gpus[0], gpus[1])    // dedicated switch
	nonAdj := topo.Route(gpus[0], gpus[2]) // via shared switch / CPU
	if adj.BWGBs <= nonAdj.BWGBs {
		t.Fatalf("adjacent (%g GB/s) should beat non-adjacent (%g GB/s)", adj.BWGBs, nonAdj.BWGBs)
	}
}

func TestSingleNodeAndClusterFor(t *testing.T) {
	topo := NewSingleNode(4, "P100")
	if len(topo.GPUs()) != 4 {
		t.Fatalf("GPUs = %d", len(topo.GPUs()))
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	k80 := NewSingleNode(2, "K80")
	if k80.Device(0).Model != "K80" {
		t.Fatalf("model = %q", k80.Device(0).Model)
	}

	small := ClusterFor("P100", 2)
	if len(small.GPUs()) != 2 {
		t.Fatalf("ClusterFor(2) GPUs = %d", len(small.GPUs()))
	}
	big := ClusterFor("P100", 32)
	if len(big.GPUs()) != 32 {
		t.Fatalf("ClusterFor(32) GPUs = %d", len(big.GPUs()))
	}
	k := ClusterFor("K80", 64)
	if len(k.GPUs()) != 64 {
		t.Fatalf("ClusterFor K80 64 GPUs = %d", len(k.GPUs()))
	}
	if k.Name != "k80-cluster" {
		t.Fatalf("cluster name %q", k.Name)
	}
}

func TestValidateFailures(t *testing.T) {
	empty := NewTopology("empty")
	if err := empty.Validate(); err == nil {
		t.Fatal("empty topology should fail validation")
	}
	disc := NewTopology("disconnected")
	disc.AddDevice(Device{Kind: GPU})
	disc.AddDevice(Device{Kind: GPU})
	if err := disc.Validate(); err == nil {
		t.Fatal("disconnected topology should fail validation")
	}
}

func TestDeviceNames(t *testing.T) {
	topo := NewP100Cluster(3)
	seen := map[string]bool{}
	for _, d := range topo.Devices {
		if seen[d.Name] {
			t.Fatalf("duplicate device name %q", d.Name)
		}
		seen[d.Name] = true
	}
	if topo.Device(0).Name != "p100-n0-g0" {
		t.Fatalf("name = %q", topo.Device(0).Name)
	}
	// Multi-digit node indices must render correctly.
	big := NewK80Cluster(12)
	last := big.Device(big.NumDevices() - 1)
	if last.Name != "cpu-n11-g0" {
		t.Fatalf("name = %q", last.Name)
	}
}
