package gic

import "testing"

type nopSink struct{}

func (nopSink) AssertIRQ(int) {}

// BenchmarkGICRaiseAck measures the GIC layer's interrupt round trip on
// a node-sized distributor (4 cores, 128 SPIs): raise a timer PPI and an
// SPI routed to the same core, acknowledge both, EOI both.
func BenchmarkGICRaiseAck(b *testing.B) {
	d := New(4, 128)
	d.SetSink(nopSink{})
	const spi = FirstSPI + 70
	for _, irq := range []int{IRQVirtualTimer, spi} {
		if err := d.Enable(irq); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Route(spi, 2); err != nil {
		b.Fatal(err)
	}
	d.SetPriority(spi, 0x80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.RaisePPI(2, IRQVirtualTimer)
		d.RaiseSPI(spi)
		a, c := d.Acknowledge(2), d.Acknowledge(2)
		if a != spi || c != IRQVirtualTimer {
			b.Fatalf("acked %d, %d", a, c)
		}
		d.EOI(2, a)
		d.EOI(2, c)
	}
}
