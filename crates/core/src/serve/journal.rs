//! The crash-safe serve journal: an append-only, byte-serializable WAL of
//! scheduling events.
//!
//! Every externally visible scheduling decision the [`Service`] makes —
//! submission, tick, admission, preemption, re-homing, completion,
//! shedding, cancellation, failure — is appended to a [`ServeJournal`] as a
//! [`ServeEvent`]. Because the scheduler is fully deterministic, the
//! journal is a *logical* write-ahead log: replaying just the **input**
//! events (`Submit`, `Cancel`, `Tick`) against a fresh service with the
//! same device group and configuration regenerates every **outcome** event
//! in the same order, which is how [`Service::restore`] rebuilds a crashed
//! service and then verifies the rebuild byte-exactly against the snapshot
//! it started from.
//!
//! The byte format is deliberately simple and self-checking:
//!
//! ```text
//! magic "FPWJ" | u16 version | records… | 0xFF end marker | u64 fnv1a
//! record = u8 tag | tag-specific payload (fixed layout per tag,
//!          strings length-prefixed with u16)
//! ```
//!
//! [`ServeJournal::from_bytes`] rejects anything whose checksum, magic or
//! structure is off; [`ServeJournal::recover`] instead salvages the longest
//! clean prefix of complete records, which is what a real WAL does with a
//! torn tail after a crash mid-append.
//!
//! [`Service`]: crate::serve::Service
//! [`Service::restore`]: crate::serve::Service::restore

use super::request::Priority;

/// One scheduling event. `Submit`, `Cancel` and `Tick` are *inputs* (what
/// the caller did); everything else is an *outcome* the deterministic
/// scheduler regenerates on replay.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// A request was accepted into the admission queue.
    Submit {
        /// Scheduler-assigned job id.
        job: u64,
        /// Tenant the job is accounted to.
        tenant: String,
        /// Scheduling priority at submission.
        priority: Priority,
        /// Relative deadline carried by the request, if any.
        deadline_s: Option<f64>,
    },
    /// One scheduler round ran.
    Tick,
    /// A job moved from the queue onto a device lease.
    Admit {
        /// The admitted job.
        job: u64,
        /// Device indices the lease spans.
        devices: Vec<u32>,
    },
    /// A running job was suspended to admit a higher-priority one.
    Preempt {
        /// The preempted job.
        job: u64,
    },
    /// A job was evacuated off a lost device and re-queued to resume on a
    /// healthy one.
    Rehome {
        /// The re-homed job.
        job: u64,
        /// The lost device it was evacuated from.
        from_device: u32,
    },
    /// A job completed with a result.
    Complete {
        /// The completed job.
        job: u64,
    },
    /// A job was shed (deadline missed, or overload eviction).
    Shed {
        /// The shed job.
        job: u64,
    },
    /// A job was cancelled by the submitter.
    Cancel {
        /// The cancelled job.
        job: u64,
    },
    /// A job aborted on an unrecovered execution error.
    Fail {
        /// The failed job.
        job: u64,
    },
}

impl ServeEvent {
    /// Whether replaying the journal must re-drive this event as an input
    /// (submissions, cancellations and ticks); outcome events regenerate.
    pub fn is_input(&self) -> bool {
        matches!(
            self,
            ServeEvent::Submit { .. } | ServeEvent::Cancel { .. } | ServeEvent::Tick
        )
    }
}

const MAGIC: &[u8; 4] = b"FPWJ";
const VERSION: u16 = 1;
const END: u8 = 0xFF;

/// Append-only log of [`ServeEvent`]s with a checksummed byte encoding.
/// See the [serve module docs](crate::serve) for the format and the
/// replay contract.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeJournal {
    events: Vec<ServeEvent>,
}

impl ServeJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one event.
    pub(crate) fn append(&mut self, ev: ServeEvent) {
        self.events.push(ev);
    }

    /// Every event, in append order.
    pub fn events(&self) -> &[ServeEvent] {
        &self.events
    }

    /// Number of events logged.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serialize to the checksummed byte format. Same events ⇒ same bytes,
    /// so snapshot equality is byte equality.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.events.len() * 12);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        for ev in &self.events {
            encode_event(&mut out, ev);
        }
        out.push(END);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse a byte snapshot, rejecting corrupt or truncated input with a
    /// description of what was wrong.
    pub fn from_bytes(bytes: &[u8]) -> Result<ServeJournal, String> {
        if bytes.len() < MAGIC.len() + 2 + 1 + 8 {
            return Err("journal too short for header and trailer".into());
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let want = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if fnv1a(body) != want {
            return Err("journal checksum mismatch".into());
        }
        let events = parse_body(body).map_err(|e| format!("corrupt journal: {e}"))?;
        Ok(ServeJournal { events })
    }

    /// Crash recovery: salvage the longest clean prefix of complete
    /// records, discarding a torn tail (e.g. a crash mid-append). Returns
    /// the recovered journal and how many whole events were salvaged.
    pub fn recover(bytes: &[u8]) -> (ServeJournal, usize) {
        let mut events = Vec::new();
        if bytes.len() < MAGIC.len() + 2 || &bytes[..4] != MAGIC {
            return (ServeJournal::default(), 0);
        }
        let mut cur = Cursor {
            bytes,
            pos: MAGIC.len() + 2,
        };
        while let Ok(Some(ev)) = decode_event(&mut cur) {
            events.push(ev);
        }
        let n = events.len();
        (ServeJournal { events }, n)
    }
}

fn parse_body(body: &[u8]) -> Result<Vec<ServeEvent>, String> {
    if &body[..4] != MAGIC {
        return Err("bad magic".into());
    }
    let version = u16::from_le_bytes([body[4], body[5]]);
    if version != VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let mut cur = Cursor {
        bytes: body,
        pos: 6,
    };
    let mut events = Vec::new();
    while let Some(ev) = decode_event(&mut cur)? {
        events.push(ev);
    }
    if cur.pos != body.len() {
        return Err("trailing bytes after end marker".into());
    }
    Ok(events)
}

// ---- encoding -----------------------------------------------------------

fn encode_event(out: &mut Vec<u8>, ev: &ServeEvent) {
    match ev {
        ServeEvent::Submit {
            job,
            tenant,
            priority,
            deadline_s,
        } => {
            out.push(0);
            out.extend_from_slice(&job.to_le_bytes());
            let t = tenant.as_bytes();
            let len = u16::try_from(t.len()).expect("submit rejects tenants over u16::MAX bytes");
            out.extend_from_slice(&len.to_le_bytes());
            out.extend_from_slice(t);
            out.push(match priority {
                Priority::Low => 0,
                Priority::Normal => 1,
                Priority::High => 2,
            });
            match deadline_s {
                Some(d) => {
                    out.push(1);
                    out.extend_from_slice(&d.to_le_bytes());
                }
                None => out.push(0),
            }
        }
        ServeEvent::Tick => out.push(1),
        ServeEvent::Admit { job, devices } => {
            out.push(2);
            out.extend_from_slice(&job.to_le_bytes());
            out.push(devices.len() as u8);
            for d in devices {
                out.extend_from_slice(&d.to_le_bytes());
            }
        }
        ServeEvent::Preempt { job } => {
            out.push(3);
            out.extend_from_slice(&job.to_le_bytes());
        }
        ServeEvent::Rehome { job, from_device } => {
            out.push(4);
            out.extend_from_slice(&job.to_le_bytes());
            out.extend_from_slice(&from_device.to_le_bytes());
        }
        ServeEvent::Complete { job } => {
            out.push(5);
            out.extend_from_slice(&job.to_le_bytes());
        }
        ServeEvent::Shed { job } => {
            out.push(6);
            out.extend_from_slice(&job.to_le_bytes());
        }
        ServeEvent::Cancel { job } => {
            out.push(7);
            out.extend_from_slice(&job.to_le_bytes());
        }
        ServeEvent::Fail { job } => {
            out.push(8);
            out.extend_from_slice(&job.to_le_bytes());
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.pos + n > self.bytes.len() {
            return Err("unexpected end of journal".into());
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decode one record; `Ok(None)` at the end marker.
fn decode_event(cur: &mut Cursor<'_>) -> Result<Option<ServeEvent>, String> {
    let tag = cur.u8()?;
    let ev = match tag {
        0 => {
            let job = cur.u64()?;
            let len = u16::from_le_bytes(cur.take(2)?.try_into().unwrap()) as usize;
            let tenant = String::from_utf8(cur.take(len)?.to_vec())
                .map_err(|_| "tenant is not utf-8".to_string())?;
            let priority = match cur.u8()? {
                0 => Priority::Low,
                1 => Priority::Normal,
                2 => Priority::High,
                p => return Err(format!("bad priority byte {p}")),
            };
            let deadline_s = match cur.u8()? {
                0 => None,
                1 => Some(cur.f64()?),
                f => return Err(format!("bad deadline flag {f}")),
            };
            ServeEvent::Submit {
                job,
                tenant,
                priority,
                deadline_s,
            }
        }
        1 => ServeEvent::Tick,
        2 => {
            let job = cur.u64()?;
            let n = cur.u8()? as usize;
            let mut devices = Vec::with_capacity(n);
            for _ in 0..n {
                devices.push(cur.u32()?);
            }
            ServeEvent::Admit { job, devices }
        }
        3 => ServeEvent::Preempt { job: cur.u64()? },
        4 => ServeEvent::Rehome {
            job: cur.u64()?,
            from_device: cur.u32()?,
        },
        5 => ServeEvent::Complete { job: cur.u64()? },
        6 => ServeEvent::Shed { job: cur.u64()? },
        7 => ServeEvent::Cancel { job: cur.u64()? },
        8 => ServeEvent::Fail { job: cur.u64()? },
        END => return Ok(None),
        t => return Err(format!("unknown event tag {t}")),
    };
    Ok(Some(ev))
}

/// FNV-1a over `bytes` — cheap, dependency-free and stable across
/// platforms, which is all a snapshot self-check needs.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ServeJournal {
        let mut j = ServeJournal::new();
        j.append(ServeEvent::Submit {
            job: 0,
            tenant: "acme".into(),
            priority: Priority::High,
            deadline_s: Some(0.25),
        });
        j.append(ServeEvent::Submit {
            job: 1,
            tenant: "globex".into(),
            priority: Priority::Low,
            deadline_s: None,
        });
        j.append(ServeEvent::Tick);
        j.append(ServeEvent::Admit {
            job: 0,
            devices: vec![0, 1],
        });
        j.append(ServeEvent::Preempt { job: 1 });
        j.append(ServeEvent::Rehome {
            job: 0,
            from_device: 1,
        });
        j.append(ServeEvent::Complete { job: 0 });
        j.append(ServeEvent::Shed { job: 1 });
        j.append(ServeEvent::Cancel { job: 2 });
        j.append(ServeEvent::Fail { job: 3 });
        j
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let j = sample();
        let bytes = j.to_bytes();
        let back = ServeJournal::from_bytes(&bytes).unwrap();
        assert_eq!(back, j);
        assert_eq!(back.to_bytes(), bytes, "re-serialization is byte-stable");
    }

    #[test]
    fn corruption_is_detected() {
        let j = sample();
        let mut bytes = j.to_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(ServeJournal::from_bytes(&bytes)
            .unwrap_err()
            .contains("checksum"));
        assert!(ServeJournal::from_bytes(&[]).is_err());
        let mut wrong_magic = j.to_bytes();
        wrong_magic[0] = b'X';
        assert!(ServeJournal::from_bytes(&wrong_magic).is_err());
    }

    #[test]
    fn recover_salvages_the_clean_prefix_of_a_torn_tail() {
        let j = sample();
        let full = j.to_bytes();
        // Chop mid-record (drop trailer + a few bytes): recover() should
        // return every complete event and drop the torn one.
        let torn = &full[..full.len() - 12];
        let (rec, n) = ServeJournal::recover(torn);
        assert!(n < j.len());
        assert!(n >= j.len() - 2, "at most the torn tail is lost");
        assert_eq!(rec.events(), &j.events()[..n]);
        // Recovering pristine bytes yields everything.
        let (rec_all, n_all) = ServeJournal::recover(&full);
        assert_eq!(n_all, j.len());
        assert_eq!(rec_all, j);
    }

    #[test]
    fn input_classification_drives_replay() {
        let inputs: Vec<bool> = sample().events().iter().map(|e| e.is_input()).collect();
        assert_eq!(
            inputs,
            vec![true, true, true, false, false, false, false, false, true, false]
        );
    }
}
