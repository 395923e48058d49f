package scheme

import (
	"fmt"
	"time"

	"iothub/internal/apps"
	"iothub/internal/sensor"
)

// StreamSpec describes one physical sampling schedule before the conductor
// binds it to the event kernel: which sensor, how often, how wide, and which
// apps consume it at which strides. Under the dedicated topology every
// (app, sensor) pair is its own stream; under BEAM's shared topology a
// sensor's users share one stream at the fastest requested rate.
type StreamSpec struct {
	// Sensor and Spec identify the physical device.
	Sensor sensor.ID
	Spec   sensor.Spec
	// Bytes is the per-sample payload (the widest consumer's, under sharing).
	Bytes int
	// PerWindow is the stream's sampling rate (the fastest consumer's).
	PerWindow int
	// Period is the sampling interval (Window / PerWindow).
	Period time.Duration
	// Track names the energy-meter track the stream's reads charge.
	Track string
	// Consumers lists the apps fed by the stream.
	Consumers []Consumer
}

// Consumer binds one app to a stream: the app takes every Stride-th sample
// (BEAM's integer downsampling for rate-mismatched sharers; 1 elsewhere).
type Consumer struct {
	App    apps.ID
	Stride int
}

// PlanDedicated lays out the default topology: one stream per (app, sensor)
// pair at the app's own rate, energy tracked per pair.
func PlanDedicated(v ConfigView) ([]StreamSpec, error) {
	n := 0
	for _, sp := range v.Specs {
		n += len(sp.Sensors)
	}
	out := make([]StreamSpec, 0, n)
	for _, sp := range v.Specs {
		for _, u := range sp.Sensors {
			sspec, err := sensor.Lookup(u.Sensor)
			if err != nil {
				return nil, err
			}
			bytes, err := u.SampleBytes()
			if err != nil {
				return nil, err
			}
			perWindow, err := sp.SamplesPerWindow(u.Sensor)
			if err != nil {
				return nil, err
			}
			out = append(out, StreamSpec{
				Sensor:    u.Sensor,
				Spec:      sspec,
				Bytes:     bytes,
				PerWindow: perWindow,
				Period:    v.Window / time.Duration(perWindow),
				Track:     fmt.Sprintf("sensor:%s:%s", u.Sensor, sp.ID),
				Consumers: []Consumer{{App: sp.ID, Stride: 1}},
			})
		}
	}
	return out, nil
}

// PlanShared lays out BEAM's topology: every sensor's users are grouped into
// one stream running at the fastest requested rate, and slower consumers
// take strided samples. Rates must divide evenly (BEAM downsamples by
// integer factors). Streams appear in first-use order, energy tracked per
// sensor (the read is physically shared).
func PlanShared(v ConfigView) ([]StreamSpec, error) {
	type user struct {
		app       apps.ID
		perWindow int
		bytes     int
	}
	order := make([]sensor.ID, 0, 8)
	bySensor := make(map[sensor.ID][]user)
	for _, sp := range v.Specs {
		for _, u := range sp.Sensors {
			perWindow, err := sp.SamplesPerWindow(u.Sensor)
			if err != nil {
				return nil, err
			}
			bytes, err := u.SampleBytes()
			if err != nil {
				return nil, err
			}
			if _, ok := bySensor[u.Sensor]; !ok {
				order = append(order, u.Sensor)
			}
			bySensor[u.Sensor] = append(bySensor[u.Sensor], user{app: sp.ID, perWindow: perWindow, bytes: bytes})
		}
	}
	var out []StreamSpec
	for _, id := range order {
		users := bySensor[id]
		sspec, err := sensor.Lookup(id)
		if err != nil {
			return nil, err
		}
		s := StreamSpec{
			Sensor: id,
			Spec:   sspec,
			Track:  fmt.Sprintf("sensor:%s", id),
		}
		for _, u := range users {
			if u.perWindow > s.PerWindow {
				s.PerWindow = u.perWindow
			}
			if u.bytes > s.Bytes {
				s.Bytes = u.bytes
			}
		}
		for _, u := range users {
			if s.PerWindow%u.perWindow != 0 {
				return nil, fmt.Errorf("%w: BEAM cannot share %s between rates %d and %d per window",
					ErrConfig, id, s.PerWindow, u.perWindow)
			}
			s.Consumers = append(s.Consumers, Consumer{App: u.app, Stride: s.PerWindow / u.perWindow})
		}
		s.Period = v.Window / time.Duration(s.PerWindow)
		out = append(out, s)
	}
	return out, nil
}
