//! Grouping of the four physical cores into logical channels, one layout
//! per operating mode (§2.4).

use serde::{Deserialize, Serialize};

use ftsched_task::{Mode, PROCESSOR_COUNT};

use crate::cpu::CoreId;

/// The assignment of physical cores to logical channels in one mode.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelLayout {
    /// The mode this layout realises.
    pub mode: Mode,
    /// `groups[c]` lists the cores ganged into channel `c`.
    pub groups: Vec<Vec<CoreId>>,
}

impl ChannelLayout {
    /// The canonical layout for a mode:
    ///
    /// * FT — one channel with all four cores (`{0,1,2,3}`);
    /// * FS — two channels `{0,1}` and `{2,3}`;
    /// * NF — four singleton channels.
    pub fn canonical(mode: Mode) -> Self {
        let groups = match mode {
            Mode::FaultTolerant => vec![vec![CoreId(0), CoreId(1), CoreId(2), CoreId(3)]],
            Mode::FailSilent => {
                vec![vec![CoreId(0), CoreId(1)], vec![CoreId(2), CoreId(3)]]
            }
            Mode::NonFaultTolerant => (0..PROCESSOR_COUNT).map(|i| vec![CoreId(i)]).collect(),
        };
        ChannelLayout { mode, groups }
    }

    /// Number of logical channels in this layout.
    pub fn channel_count(&self) -> usize {
        self.groups.len()
    }

    /// The cores belonging to channel `channel`.
    pub fn cores_of(&self, channel: usize) -> &[CoreId] {
        &self.groups[channel]
    }

    /// The channel a given core belongs to, if any.
    pub fn channel_of_core(&self, core: CoreId) -> Option<usize> {
        self.groups.iter().position(|g| g.contains(&core))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_layouts_are_valid_and_match_mode_channel_counts() {
        for mode in Mode::ALL {
            let layout = ChannelLayout::canonical(mode);
            assert_eq!(layout.channel_count(), mode.channels());
            // Every core sits in exactly one channel.
            let mut cores: Vec<_> = layout.groups.concat();
            cores.sort();
            assert_eq!(cores, (0..PROCESSOR_COUNT).map(CoreId).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ft_layout_gangs_all_cores() {
        let layout = ChannelLayout::canonical(Mode::FaultTolerant);
        assert_eq!(layout.cores_of(0).len(), 4);
        for c in 0..4 {
            assert_eq!(layout.channel_of_core(CoreId(c)), Some(0));
        }
    }

    #[test]
    fn fs_layout_pairs_cores() {
        let layout = ChannelLayout::canonical(Mode::FailSilent);
        assert_eq!(layout.cores_of(0), &[CoreId(0), CoreId(1)]);
        assert_eq!(layout.cores_of(1), &[CoreId(2), CoreId(3)]);
        assert_eq!(layout.channel_of_core(CoreId(3)), Some(1));
    }

    #[test]
    fn nf_layout_isolates_cores() {
        let layout = ChannelLayout::canonical(Mode::NonFaultTolerant);
        for c in 0..4 {
            assert_eq!(layout.cores_of(c), &[CoreId(c)]);
        }
        assert_eq!(layout.channel_of_core(CoreId(9)), None);
    }
}
